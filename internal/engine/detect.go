package engine

import (
	"fmt"
	"sync/atomic"

	"mirror/internal/pmem"
)

// Detectability: per-client recoverable operation-descriptor rings.
//
// A durably linearizable structure guarantees that completed operations
// survive a crash — but after the crash a client still cannot ask "did my
// operation commit?". The descriptor region closes that gap. Each client
// owns a small ring of 16-word entries (two cache lines each) below the
// allocator base of the persistent device; operation seq occupies entry
// (seq-1) mod Ring of its client's ring:
//
//	announce line   w0 seq   w1 kind   w2 key   w3 val   w4 checksum
//	                w5 named word
//	verdict line    w8 seq<<2|result<<1|1   w9 rval   w10 checksum
//	                w11 done bits   w12 result bits   w13 witness
//
// w5 is the device offset of the word whose tag testifies for the entry's
// seq (0: none; the checksum covers it, and folds it away when it is 0), and
// w13 the largest full seq of the entry that another operation witnessed
// before erasing its evidence (O6, O7 below). w6, w7, w14 and w15 are unused.
//
// Bit i of w11/w12 is the verdict of seq-1-i (i < 63): a drain writes one
// verdict line per client, for its newest pending seq, and that line
// carries the results of the client's earlier seqs of the same drain.
//
// The protocol is: durably announce (client, seq, payload) before the
// operation's first install, publish the verdict after the linearizing
// install is durable, and fence the verdict before the operation's response
// is released to the client. Both lines are checksummed, so a torn line (a
// crash mid-write) is detected rather than misread; client sequence
// numbers are strictly increasing.
//
// The ring serves pipelined clients: a client may hold up to Ring operations in flight (announced, responses
// not yet read) and Detect remains authoritative for every seq in that
// window — the seqs a crash can cut. The contract requires exactly two
// things of the caller:
//
//   - In-flight window ≤ Ring: a client issues seq only after it has read
//     the response for seq-Ring. An entry holding evidence of a *later*
//     lap (announce or verdict for seq+kRing) therefore proves seq's
//     response was released, hence seq committed.
//   - Per-client FIFO execution with verdicts published in seq order
//     after a drain fence (DetectDrain). A durable verdict
//     for a later seq of the same client then proves every earlier seq's
//     effect was durable first — even when the earlier verdict line itself
//     was dropped by the crash, or never written — because verdict words
//     are only written after the fence that committed the whole prefix.
//     That is what lets a drain write one line per client: the line of the
//     newest seq vouches for the earlier ones, and its bits record their
//     results. An operation with a return word (a dequeued value) still
//     writes a line of its own, and every line of the drain carries the
//     bits of every earlier seq that has none.
//
// Operations older than the ring window delivered their responses long
// ago; a torn overwrite may erase their superseded evidence (the scrubbed
// entry then reads NotCommitted for them). Within the contract this is
// harmless: clients only ask about unacknowledged seqs, which all lie in
// the window.
//
// Ordering is what makes the verdicts sound — exactly two orders, both
// enforced here and in the engines' write path rather than by callers:
//
//   - No install of the armed operation reaches the media without evidence
//     of its announce that recovery can read. DetectBeginDeferred writes the
//     announce line and arms it on the context's flush set
//     (pmem.Device.FlushAhead): the first fence the operation issues there
//     — a read fence, a publish fence, the announce barrier's own or a
//     tagged install's — flushes it before committing.
//     The engines' CAS and Store first pass the announce barrier
//     (announceBarrier below), which fences iff no fence on the flush set
//     has run since the announce was armed. An insert's own publish fence
//     carries the announce for free, a delete's level-0 mark on Mirror
//     carries its operation's tag instead of paying the barrier (Tags
//     below), and an operation that installs nothing (insert-found,
//     delete-missing, failed RMW) pays neither fence nor flush: it reaches
//     its verdict with the line still armed and drops it, and its verdict
//     alone testifies.
//     Hence "no valid announce for seq and no tag of it on the media"
//     implies no install of the operation can be on the media —
//     NotCommitted.
//   - The verdict is written only after the linearizing install is
//     durable: Mirror makes every install durable before it is visible,
//     NVTraverse fences inside its CAS, and Izraelevitz — whose CAS is
//     flushed but fenced only before the next access — commits it with
//     OpEnd's fence, behind which DetectDrain fences anything still
//     pending before it writes a verdict line. Hence a durable verdict
//     implies a durable effect — Committed.
//   - A valid announce with no verdict proves nothing either way: Unknown.
//
// Nothing else needs an order. In particular an Auxiliary line (a snip —
// patomic.Auxiliary) may share the verdict's
// fence: no verdict testifies to it, and its loss at a crash leaves a state
// some earlier crash could also have left (internal/protomodel checks both
// orders and this licence exhaustively).
//
// Tags. Under Mirror's rule a value becomes visible only after its own
// fence, so a delete's level-0 mark can testify for its operation's
// announce at no cost: the mark word carries tag(client, seq) in its bits
// from TagShift up (Ctx.MarkTag), and the CAS that installs the armed
// operation's own tag skips the announce barrier. Its own fence flushes the
// armed announce line first and commits it together with the mark. Until
// that fence the mark is in rep_p only, so no search sees it and no snip
// can unlink it: if it reached the media early (an eviction, another
// context's fence of its line), recovery finds it reachable and reads its
// tag. The obligations, each with a test:
//
//   - (O1) Own install. A tagged install reaches rep_v only after a real
//     fence on the owner's flush set has committed its announce: it runs
//     under patomic.Tagged, which flushes and fences whatever the
//     watermark says. Another fence of the same line (a CasVal on the
//     node's value cell) can commit the mark without the announce, so
//     neither eliding on the watermark nor riding that fence's ticket
//     would do (TestTaggedInstallFencesItsAnnounce).
//   - (O2) Help path. A helper that mirrors a tagged value into rep_v —
//     the ps == vs+1 branch and the failed-install branch of
//     patomic.Mem.CAS — first persists the announce line the tag names
//     (patomic.Mem.Witness, witness below): once the mark is visible a
//     search may snip the node, and the tag leaves the media with it
//     (TestHelpedTagPersistsItsAnnounce).
//   - (O3) Recovery. The trace's read collects the tag of every cell word
//     it returns into a set fixed until the next recovery (traceTags), on
//     the warm path (recoveryLoad) and over an adopted media file
//     (restoreFixed) alike. Detect consults it only where it would answer
//     NotCommitted, and answers Unknown instead: a tag shows that the
//     install may have happened, never that it did, so never Committed
//     (the skip list's RunRingDetect KeepFlushed rows).
//   - (O4) Only Mirror tags, and only the skip list's delete. The direct
//     engines' installs are visible before they are durable, so they keep
//     the barrier for every CAS; so do the structures that install no tag
//     — the list, the hash table, the BST, the queue — and CasVal.
//   - (O5) Encoding. A tag lies above every Ref: Config.Validate refuses
//     Words beyond MaxWords, and Clients × DetectRing beyond what the tag
//     bits can name. It names its ring entry, so it determines the
//     announce line's address, and the low tagLapBits bits of its lap,
//     which tell seq from seq ± Ring. Tag 0 is no tag: with detectability
//     off nothing changes.
//
// Evidence instead of a verdict. On Mirror a skip-list operation that takes
// effect leaves a word that names it, committed by the fence that makes
// the effect durable, and is acknowledged with no verdict line and no End
// fence (DetectEndDeferred records it in a live per-entry record instead):
//
//   - An insert tags the write-once height word of the node it publishes
//     (Ctx.NodeTag), and the engine names that word's offset in the armed
//     announce (w5, covered by the checksum) before the publish fence,
//     which commits the announce, the name and the node together, ahead of
//     the level-0 link; once the link's own fence has run, the node on
//     level 0 testifies for the insert.
//   - A delete's level-0 mark carries its tag (O1), and once the mark is in
//     rep_p the engine names the mark's word, as a mark (namedMark), in the
//     announce before the mark's own fence commits both (the patomic
//     AfterTagged hook). A mark is final, and its node leaves level 0 only
//     after it, so the trace reading the tagged mark or never reaching the
//     word both testify for the delete.
//
// Every other operation — one without effect, a dequeue, an RMW, any
// operation on another structure or engine — keeps its verdict line and
// End, and so does one whose client has an earlier seq awaiting its
// verdict on the context (a pipelined batch): per-client FIFO makes a
// client's committed seqs a prefix, which the seq's own evidence, durable
// before that earlier verdict, would break (TestEvidenceKeepsThePrefix).
// Two more obligations, each with a test:
//
//   - (O6) Witness before erase. Evidence that vouches for an acknowledged
//     seq must outlast the seq's ring window, which ends when its client
//     arms seq + Ring. A record of the seq in its own entry (w13, the
//     witness: a monotone maximum of full seqs, so a slow writer never
//     hides a later lap's) stands in for evidence that is erased, and it is
//     fenced before the erasing store can reach rep_p — sharing the erase's
//     fence would not do, since an eviction can carry a relaxed snip to the
//     media ahead of a witness that was only flushed. Two installs erase:
//     (a) the level-0 snip of an insert's node, which follows the node's
//     mark: the marking CAS (Ctx.Doom hands it the height word) first
//     witnesses the insert if the insert's announce still names the word —
//     once it does not, the window has ended — and a tagged mark's own
//     fence commits the witness before the mark is visible, a helper that
//     mirrors the mark persists it first (O2, witnessLines), and an unarmed
//     mark pays one witness fence ahead of its install (Stats.WitnessFences);
//     (b) the reuse of a deleted node's memory, which could put the mark's
//     named word back on level 0 without the mark: retiring the node
//     leaves its context a witness owed, which the pre-free drain that
//     comes before any reuse pays — if the delete's window is still open —
//     and fences (Drain; a closing context hands what it owes on with its
//     limbo); a node is freed two epochs after its retire, so most windows
//     have ended by then. A recovery that finds a named mark's evidence
//     writes its witness durably before the allocator it rebuilds can hand
//     the node's memory out. The snip of a marked node needs no witness for
//     the delete: the absence of the word testifies.
//     (skiplist.TestSnipWitnessesInsert, the fallback rows of
//     TestServedMutationBudget, and RunAckDetect's crash sweep.)
//   - (O7) Evidence testifies exactly. Detect answers Committed with result
//     true for a seq only where the entry's witness records exactly that
//     seq, or where the live record or the last recovery's trace found it:
//     the trace read the seq's tag at exactly the offset the seq's valid
//     announce names, or, for a named mark, never read that offset. A tag
//     keeps only tagLapBits lap bits, and an old insert's height word stays
//     on level 0 for any number of laps, so the tag alone would alias a
//     later operation of the same entry; the named offset does not, since
//     an announce names a word only once the armed operation has installed
//     or published it (skiplist.TestTagLapAliasNotCommitted).

// Descriptors deliberately do not reintroduce a fence per operation: the
// announce rides whichever fence the operation issues first, the verdict
// flush piggybacks on the operation's flush set, and the one trailing
// verdict fence is skipped via the elision layer whenever an intervening
// fence already committed it. Nor a flush per operation: an announce is
// flushed only by a fence that needs it, and a drain flushes one verdict
// line per client. The End fence goes wherever the install itself
// testifies — a skip-list insert or delete that took effect on Mirror — and
// stays for every operation with no effect to testify: only its verdict
// line answers for it. The relaxed snips such an End used to carry wait in
// the registry for the next End or pre-free drain, as those of an
// operation without detectability always did.

// Verdict is a detectability answer for one (client, seq) operation.
type Verdict int

// Verdict values. Unknown is the honest answer for an operation that was
// announced but whose verdict never persisted: it may or may not have taken
// effect (exactly the two fates durable linearizability allows a cut
// operation).
const (
	Unknown Verdict = iota
	Committed
	NotCommitted
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Committed:
		return "Committed"
	case NotCommitted:
		return "NotCommitted"
	default:
		return "Unknown"
	}
}

// Operation kinds recorded in descriptors (word w1 of the announce line).
const (
	DetectInsert uint64 = iota + 1
	DetectDelete
	DetectContains
	DetectEnqueue
	DetectDequeue
	DetectRMW
)

// DetectResult is the full answer of Detect.
type DetectResult struct {
	Verdict Verdict
	// KnownResult reports whether Result and Rval were recorded for this
	// exact seq, in its own verdict line or in the result bits of a later
	// one. It is false when the ring proves the operation committed only
	// indirectly — a later operation of the same client has already
	// overwritten the recorded result, or a later verdict vouches for it
	// without carrying it.
	KnownResult bool
	// Result is the operation's boolean return value (valid when
	// KnownResult).
	Result bool
	// Rval is an auxiliary return word (dequeued value; zero for sets).
	Rval uint64
}

// Descriptor entry layout, in words relative to the entry base. One entry
// is descSlotWords words = two cache lines; the announce words share the
// first line and the verdict words the second, so each half persists (or
// tears) as one line. Entries never share a line, so sibling entries of one
// client's ring tear independently.
const (
	descSlotWords = 2 * pmem.WordsPerLine

	dSeq    = 0
	dKind   = 1
	dKey    = 2
	dVal    = 3
	dAnnChk = 4
	dNamed  = 5

	dVerdict = pmem.WordsPerLine
	dRval    = pmem.WordsPerLine + 1
	dVerChk  = pmem.WordsPerLine + 2
	dDone    = pmem.WordsPerLine + 3
	dResults = pmem.WordsPerLine + 4
	dWitness = pmem.WordsPerLine + 5
)

// DefaultDetectRing is the per-client ring size engines reserve when
// Config.DetectRing is zero and detectability is on: the serving tier's
// default pipeline window.
const DefaultDetectRing = 8

// MaxDetectRing bounds the per-client ring size. A client's pending seqs
// span less than one ring (a lap forces a drain), so with at most 64 entries
// every earlier seq of a drain lies within the 63 seqs a verdict line's bits
// cover.
const MaxDetectRing = 64

// TagShift is the lowest bit of a tag (detect.go "Tags"): a word's bits
// from TagShift up name the operation whose install it is, and no Ref
// reaches them.
const TagShift = 36

// MaxWords bounds Config.Words, so that every Ref lies below the tag bits.
const MaxWords = 1 << TagShift

// namedMark marks a named word (w5) as a tagged mark's: once the mark has
// been installed its node leaves level 0 only after it, so the trace not
// reaching the word testifies as much as reading the mark does (O7).
const namedMark = 1 << 63

// tagLapBits is how many low bits of a seq's lap ((seq-1) / Ring) its tag
// keeps beside the ring entry.
const tagLapBits = 4

// maxTagEntries bounds Clients × DetectRing: the ring entries a tag can
// name.
const maxTagEntries = (1<<(64-TagShift) - 1) >> tagLapBits

// descWords returns the size of the descriptor region for the given client
// count and per-client ring size.
func descWords(clients, ring int) uint64 {
	return uint64(clients) * uint64(ring) * descSlotWords
}

// mix64 is a splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// annChk checksums an announce line. The folded constant keeps the
// checksum of an all-zero slot from validating; a line that names no word
// checksums as it did before lines could name one.
func annChk(seq, kind, key, val, named uint64) uint64 {
	return mix64(seq*0x9e3779b97f4a7c15 ^ kind*0xff51afd7ed558ccd ^
		key*0xc2b2ae3d27d4eb4f ^ val ^ named*0x9fb21c651e98df25 ^ 0xd6e8feb86659fd93)
}

// announceAt decodes the announce line of the entry at s: its seq and the
// word it names; ok is false for an empty or torn line.
func (r *descRegion) announceAt(s uint64) (seq, named uint64, ok bool) {
	a0 := r.Dev.ReadRaw(s + dSeq)
	a5 := r.Dev.ReadRaw(s + dNamed)
	ok = a0 != 0 && r.Dev.ReadRaw(s+dAnnChk) == annChk(a0, r.Dev.ReadRaw(s+dKind),
		r.Dev.ReadRaw(s+dKey), r.Dev.ReadRaw(s+dVal), a5)
	return a0, a5, ok
}

// verChk checksums a verdict line. A line without result bits checksums as
// it did before the bits existed.
func verChk(vw, rval, done, results uint64) uint64 {
	return mix64(vw*0x9e3779b97f4a7c15 ^ rval ^ done*0xc2b2ae3d27d4eb4f ^
		results*0xff51afd7ed558ccd ^ 0xa0761d6478bd642f)
}

// verdictLine is a decoded verdict line.
type verdictLine struct {
	seq           uint64
	result        bool
	rval          uint64
	done, results uint64 // bit i: the verdict of seq-1-i
}

// bit returns the bit of the done and result words that speaks for seq, and
// whether the line can carry seq at all: one of the 63 seqs below its own.
func (v *verdictLine) bit(seq uint64) (uint64, bool) {
	if seq >= v.seq || v.seq-seq >= MaxDetectRing {
		return 0, false
	}
	return 1 << (v.seq - seq - 1), true
}

// carry records the result of the earlier seq in the line's bits, if the
// line can carry it.
func (v *verdictLine) carry(seq uint64, result bool) bool {
	b, ok := v.bit(seq)
	if ok {
		v.done |= b
		if result {
			v.results |= b
		}
	}
	return ok
}

// carries reports whether the line records the result of the earlier seq
// in its bits, and that result.
func (v *verdictLine) carries(seq uint64) (result, ok bool) {
	b, ok := v.bit(seq)
	return v.results&b != 0, ok && v.done&b != 0
}

// descRegion is a per-client operation-descriptor region on one persistent
// device: Clients rings of Ring entries each, which the engines place below
// their allocator base (Config.layout) and only the detector writes. Each
// ring is single-writer: one client id maps to one ring, written by one
// worker in per-client seq order, with at most Ring operations in flight.
type descRegion struct {
	Dev     *pmem.Device
	Base    uint64 // first word of client 0's entry 0; must be cache-line aligned
	Clients int
	Ring    int // entries per client; operation seq uses entry (seq-1) mod Ring
	// Durable applies the flush+fence protocol. Leave it false on volatile
	// devices (the non-durable engines): the region is wiped at a crash and
	// every verdict honestly reads NotCommitted.
	Durable bool

	announces     atomic.Uint64
	verdicts      atomic.Uint64
	barriers      atomic.Uint64 // fences the announce barrier issued
	witnesses     atomic.Uint64 // witness records written (O6)
	witnessFences atomic.Uint64 // fences a witness paid for itself (O6)
	unverdicted   atomic.Uint64 // operations acknowledged on their evidence

	// tags is a bitset over tag values: the mark tags the last recovery's
	// trace read (traceTags, O3); fixed from the end of that recovery to the
	// start of the next.
	tags []uint64
	// evidence holds, per ring entry, the seq whose own install testifies
	// for it (O7): set when such an operation returns, and replaced by what
	// the trace found at each recovery.
	evidence []atomic.Uint64
	// witnessLines holds, per ring entry, the witness line (O6) that the
	// entry's in-flight tagged install made its fence commit, or 0: a
	// helper that mirrors the install persists it first (O2).
	witnessLines []atomic.Uint64
}

// newDescRegion validates and returns a region descriptor. The region's
// words must be reserved by the caller (they are raw words, not allocator
// memory).
func newDescRegion(dev *pmem.Device, base uint64, clients, ring int, durable bool) *descRegion {
	if base%pmem.WordsPerLine != 0 {
		panic(fmt.Sprintf("engine: descriptor region base %d is not cache-line aligned", base))
	}
	if clients <= 0 {
		panic("engine: descriptor region needs at least one client")
	}
	if ring <= 0 {
		panic("engine: descriptor ring needs at least one entry")
	}
	if ring > MaxDetectRing {
		panic(fmt.Sprintf("engine: descriptor ring %d exceeds %d entries", ring, MaxDetectRing))
	}
	return &descRegion{
		Dev: dev, Base: base, Clients: clients, Ring: ring, Durable: durable,
		evidence:     make([]atomic.Uint64, clients*ring),
		witnessLines: make([]atomic.Uint64, clients*ring),
	}
}

// ringBase returns the first word of client's ring.
func (r *descRegion) ringBase(client int) uint64 {
	if client < 0 || client >= r.Clients {
		panic(fmt.Sprintf("engine: descriptor client %d outside [0, %d)", client, r.Clients))
	}
	return r.Base + uint64(client)*uint64(r.Ring)*descSlotWords
}

// entry returns the first word of the ring entry operation (client, seq)
// occupies.
func (r *descRegion) entry(client int, seq uint64) uint64 {
	return r.ringBase(client) + (seq-1)%uint64(r.Ring)*descSlotWords
}

// Words returns the region's size in words.
func (r *descRegion) Words() uint64 { return descWords(r.Clients, r.Ring) }

// index returns the index over the whole region of the ring entry
// operation (client, seq) occupies.
func (r *descRegion) index(client int, seq uint64) uint64 {
	return uint64(client)*uint64(r.Ring) + (seq-1)%uint64(r.Ring)
}

// tag returns the tag of operation (client, seq): one plus its ring entry's
// index over the whole region, shifted past the low tagLapBits bits of its
// lap. Never 0.
func (r *descRegion) tag(client int, seq uint64) uint64 {
	return r.tagAt(r.index(client, seq), seq)
}

// tagAt is tag for the operation seq of the entry of the given index.
func (r *descRegion) tagAt(index, seq uint64) uint64 {
	return 1 + (index<<tagLapBits | (seq-1)/uint64(r.Ring)&(1<<tagLapBits-1))
}

// tagIndex returns the index of the ring entry that the tag in w names, and
// false when w carries none.
func (r *descRegion) tagIndex(w uint64) (uint64, bool) {
	t := w >> TagShift
	if t == 0 || (t-1)>>tagLapBits >= uint64(r.Clients*r.Ring) {
		return 0, false
	}
	return (t - 1) >> tagLapBits, true
}

// witness is patomic.Mem.Witness for the region: the first word of the
// announce line the tag of w names (O2), and the witness line its install
// made its own fence commit (O6); 0 where there is none.
func (r *descRegion) witness(w uint64) (announce, witness uint64) {
	i, ok := r.tagIndex(w)
	if !ok {
		return 0, 0
	}
	return r.Base + i*descSlotWords, r.witnessLines[i].Load()
}

// traceTags wraps a recovery trace's read on Mirror, the engine that tags
// (O3, O4, O7), and returns the wrapper and what to run once the trace has
// ended. The tag of every cell word the trace reads lands in a fresh
// bitset over tag values, which replaces the previous recovery's. The seq
// of a valid announce that names a word becomes its entry's evidence where
// the trace reads the seq's tag at exactly that word — or, for a mark's
// word, where the trace never reads the word at all. The trace runs on one
// goroutine, and no Detect runs during recovery.
func (r *descRegion) traceTags(read func(Ref, int) uint64) (func(Ref, int) uint64, func()) {
	n := uint64(r.Clients * r.Ring)
	tags := make([]uint64, (n<<tagLapBits+63)/64)
	r.tags = tags
	// named[i] is entry i's valid announce, if it names a word; marks
	// lists the entries that name a mark's word, and filter has the bit
	// of each such word's offset, so that a read tests one bit.
	type namedWord struct {
		seq, word uint64
		read      bool
	}
	named := make([]namedWord, n)
	var marks []uint64
	var filter [64]uint64
	for i := range named {
		r.evidence[i].Store(0)
		if seq, w, ok := r.announceAt(r.Base + uint64(i)*descSlotWords); ok && w != 0 {
			named[i] = namedWord{seq: seq, word: w &^ namedMark}
			if w&namedMark != 0 {
				marks = append(marks, uint64(i))
				filter[w>>6%64] |= 1 << (w % 64)
			}
		}
	}
	traced := func(ref Ref, field int) uint64 {
		w := read(ref, field)
		if marks != nil && field < Plain {
			if a := mirrorAddr(ref, field); filter[a>>6%64]&(1<<(a%64)) != 0 {
				for _, i := range marks {
					if named[i].word == a {
						named[i].read = true
					}
				}
			}
		}
		if w < 1<<TagShift {
			return w
		}
		i, ok := r.tagIndex(w)
		if !ok {
			return w
		}
		if field < Plain {
			t := w>>TagShift - 1
			tags[t/64] |= 1 << (t % 64)
		}
		if nw := &named[i]; nw.word != 0 && r.tagAt(i, nw.seq) == w>>TagShift && nw.word == mirrorAddr(ref, field) {
			r.evidence[i].Store(nw.seq)
		}
		return w
	}
	return traced, func() {
		for _, i := range marks {
			nw := &named[i]
			if !nw.read {
				r.evidence[i].Store(nw.seq)
			}
			// The allocator this recovery rebuilds may hand out the
			// node's memory next: witness the delete durably now (O6).
			if s := r.Base + i*descSlotWords; r.evidence[i].Load() == nw.seq && r.Dev.ReadRaw(s+dWitness) < nw.seq {
				r.Dev.WriteRaw(s+dWitness, nw.seq)
				if r.Durable {
					r.Dev.PersistRange(s+dWitness, 1)
				}
			}
		}
	}
}

// traced reports whether the last recovery's trace read the tag of
// (client, seq) off a cell word (O3).
func (r *descRegion) traced(client int, seq uint64) bool {
	if r.tags == nil {
		return false
	}
	t := r.tag(client, seq) - 1
	return r.tags[t/64]&(1<<(t%64)) != 0
}

// arm writes the announce line for (client, seq) and leaves its flush to the
// next fence on fs (pmem.Device.FlushAhead). The caller must fence fs before
// the operation's first install, and drop the armed line (FlushSet.DropAhead)
// if the operation reaches its verdict with no fence since arm.
func (r *descRegion) arm(fs *pmem.FlushSet, client int, seq, kind, key, val uint64) {
	if seq == 0 {
		panic("engine: detectable sequence numbers start at 1")
	}
	s := r.entry(client, seq)
	r.Dev.Store(s+dSeq, seq)
	r.Dev.Store(s+dKind, kind)
	r.Dev.Store(s+dKey, key)
	r.Dev.Store(s+dVal, val)
	if r.Dev.ReadRaw(s+dNamed) != 0 {
		r.Dev.Store(s+dNamed, 0)
	}
	r.Dev.Store(s+dAnnChk, annChk(seq, kind, key, val, 0))
	r.announces.Add(1)
	if r.Durable {
		r.Dev.FlushAhead(fs, s)
	}
}

// name records in the announce of (client, seq) the offset of the word
// whose tag will testify for it, and re-checksums the line (O7). The caller
// names the word before the fence that commits it, and flushes the line
// unless the announce is still armed on that fence's flush set.
func (r *descRegion) name(client int, seq, word uint64) {
	s := r.entry(client, seq)
	r.Dev.Store(s+dNamed, word)
	r.Dev.Store(s+dAnnChk, annChk(seq, r.Dev.ReadRaw(s+dKind), r.Dev.ReadRaw(s+dKey), r.Dev.ReadRaw(s+dVal), word))
}

// witnessInsert is O6's record before an install that dooms the tagged
// word w at offset word: if the announce of the entry w's tag names that
// offset, and the tag is its seq's, it raises the entry's witness to that
// seq and flushes the witness line on fs, and returns the line. It returns
// 0 when the window of the tagged seq has ended (the announce names another
// word or seq), which needs no record.
func (r *descRegion) witnessInsert(fs *pmem.FlushSet, word, w uint64) uint64 {
	i, ok := r.tagIndex(w)
	if !ok {
		return 0
	}
	s := r.Base + i*descSlotWords
	seq, named, ok := r.announceAt(s)
	if !ok || named != word || r.tagAt(i, seq) != w>>TagShift {
		return 0
	}
	r.raiseWitness(fs, s, seq)
	return s + dWitness
}

// owedWitness is a delete acknowledged on its mark whose node, retired in
// the reclamation epoch epoch, must not be reused before its witness is
// durable (O6).
type owedWitness struct {
	client     int
	seq, epoch uint64
}

// payOwed settles the owed witnesses whose nodes a drain at reclamation
// epoch now may free — retired two epochs before or earlier — and returns
// the rest. It witnesses each such operation whose window is still open
// (its entry's announce is still its own) and flushes the line on fs; the
// caller fences them before any memory is reused. A window that has ended
// needs nothing: the client holds the response and asks no more.
func (r *descRegion) payOwed(fs *pmem.FlushSet, owed []owedWitness, now uint64) []owedWitness {
	kept := owed[:0]
	for _, o := range owed {
		if o.epoch+2 > now {
			kept = append(kept, o)
		} else if s := r.entry(o.client, o.seq); r.Dev.ReadRaw(s+dSeq) == o.seq {
			r.raiseWitness(fs, s, o.seq)
		}
	}
	return kept
}

// raiseWitness raises the witness of the entry at s to seq, unless it
// already records seq or a later lap, and flushes its line on fs.
func (r *descRegion) raiseWitness(fs *pmem.FlushSet, s, seq uint64) {
	for {
		cur := r.Dev.ReadRaw(s + dWitness)
		if cur >= seq || r.Dev.CAS(s+dWitness, cur, seq) {
			break
		}
	}
	r.Dev.Flush(fs, s+dWitness)
	r.witnesses.Add(1)
}

// publish writes and flushes one verdict line, result bits included. The
// caller counts the verdicts it publishes: a line may carry several.
func (r *descRegion) publish(fs *pmem.FlushSet, client int, v verdictLine) {
	s := r.entry(client, v.seq)
	vw := v.seq<<2 | 1
	if v.result {
		vw |= 2
	}
	r.Dev.Store(s+dVerdict, vw)
	r.Dev.Store(s+dRval, v.rval)
	r.Dev.Store(s+dDone, v.done)
	r.Dev.Store(s+dResults, v.results)
	r.Dev.Store(s+dVerChk, verChk(vw, v.rval, v.done, v.results))
	if r.Durable {
		r.Dev.Flush(fs, s+dVerdict)
	}
}

// verdictAt decodes the verdict line of the entry at s; ok is false for an
// empty or torn line.
func (r *descRegion) verdictAt(s uint64) (v verdictLine, ok bool) {
	vw := r.Dev.ReadRaw(s + dVerdict)
	rv := r.Dev.ReadRaw(s + dRval)
	dn := r.Dev.ReadRaw(s + dDone)
	rs := r.Dev.ReadRaw(s + dResults)
	if vw&1 != 1 || r.Dev.ReadRaw(s+dVerChk) != verChk(vw, rv, dn, rs) {
		return verdictLine{}, false
	}
	return verdictLine{seq: vw >> 2, result: vw&2 != 0, rval: rv, done: dn, results: rs}, true
}

// End commits the published verdict before the operation returns to the
// client. The device elides the fence when an intervening fence of this
// thread already committed the verdict line.
func (r *descRegion) End(fs *pmem.FlushSet) {
	if r.Durable {
		r.Dev.FenceOrElide(fs)
	}
}

// Detect answers whether (client, seq) committed, from the raw descriptor
// words. It reads the media view (ReadRaw), so it is valid on a quiesced,
// crashed, or recovered device — the recovery-time query the client asks
// before retrying. The answer is authoritative for every seq still inside
// the client's in-flight ring window (the seqs a crash can cut); for seqs
// the ring has lapped, a torn overwrite may erase the superseded evidence,
// which then reads NotCommitted — harmless, since their responses were
// released before the lap could begin.
func (r *descRegion) Detect(client int, seq uint64) DetectResult {
	if seq == 0 {
		// Sequence numbers start at 1; nothing was ever issued as seq 0.
		return DetectResult{Verdict: NotCommitted}
	}
	s := r.entry(client, seq)
	if v, ok := r.verdictAt(s); ok && v.seq == seq {
		return DetectResult{Verdict: Committed, KnownResult: true, Result: v.result, Rval: v.rval}
	}
	// Evidence of the seq's own install, or a witness of it (O6, O7): only
	// an operation that took effect leaves either.
	if r.evidence[r.index(client, seq)].Load() == seq || r.Dev.ReadRaw(s+dWitness) == seq {
		return DetectResult{Verdict: Committed, KnownResult: true, Result: true}
	}
	// Every valid verdict line of the client for a later seq proves seq
	// committed: verdict words are written only after the drain fence that
	// committed every earlier effect of the client (per-client FIFO), so
	// however that later line persisted — its End fence or a cache eviction
	// — seq's effect was durable first. The line of seq's own drain also
	// carries its result. The cheap test on the verdict word skips the
	// checksum of every line that cannot qualify, which is all of them when
	// the serving tier checks a fresh seq.
	lapped, later := false, false
	base := r.ringBase(client)
	for i := 0; i < r.Ring; i++ {
		sib := base + uint64(i)*descSlotWords
		if r.Dev.ReadRaw(sib+dVerdict)>>2 <= seq {
			continue
		}
		v, ok := r.verdictAt(sib)
		if !ok {
			continue
		}
		if result, carried := v.carries(seq); carried {
			return DetectResult{Verdict: Committed, KnownResult: true, Result: result}
		}
		if sib == s {
			lapped = true
		} else {
			later = true
		}
	}
	a0, _, announced := r.announceAt(s)
	switch {
	case lapped, announced && a0 > seq:
		// The entry has lapped past seq (it holds seq+kRing evidence, k≥1).
		// A client issues seq+Ring only after reading seq's response, which
		// is released only after seq's effect and verdict fenced — so seq
		// committed (its recorded result is gone).
		return DetectResult{Verdict: Committed}
	case announced && a0 == seq:
		// Announced, no verdict line speaks for seq (never published, or
		// dropped by the crash). A later sibling verdict still proves it
		// committed, without its result; a sibling *announce* proves
		// nothing: a pipelined client announces a whole window before
		// anything drains.
		if later {
			return DetectResult{Verdict: Committed}
		}
		return DetectResult{Verdict: Unknown}
	default:
		// No announce reached the media for seq (stale, zeroed, or torn).
		// A tag of seq that recovery read says its mark may be on the
		// media all the same: it was installed without the barrier, and
		// the fence that would have committed the announce with it may
		// not have run (O3).
		if r.traced(client, seq) {
			return DetectResult{Verdict: Unknown}
		}
		// Otherwise the operation never passed its pre-linearization
		// barrier.
		return DetectResult{Verdict: NotCommitted}
	}
}

// Scrub zeroes torn descriptor lines after a crash: a line whose checksum
// does not validate can never again yield a verdict, so recovery replaces
// it with the canonical empty encoding and persists the wipe. Idempotent —
// a crash during recovery re-scrubs the same lines.
func (r *descRegion) Scrub() {
	for i := 0; i < r.Clients*r.Ring; i++ {
		s := r.Base + uint64(i)*descSlotWords
		if r.Dev.ReadRaw(s+dSeq) != 0 || r.Dev.ReadRaw(s+dAnnChk) != 0 {
			if _, _, ok := r.announceAt(s); !ok {
				for w := uint64(dSeq); w <= dNamed; w++ {
					r.Dev.WriteRaw(s+w, 0)
				}
			}
		}
		if _, ok := r.verdictAt(s); !ok {
			for w := uint64(dVerdict); w <= dResults; w++ {
				r.Dev.WriteRaw(s+w, 0)
			}
		}
	}
	if r.Durable {
		r.Dev.PersistRange(r.Base, int(r.Words()))
	}
}

// stats fills the region's counters into s: announces written and
// verdicts published — one per operation each, whether or not the announce
// line was ever flushed and whether the verdict has a line of its own or
// rides another's bits — barrier fences, witnesses and their fences, and
// the operations acknowledged without a verdict.
func (r *descRegion) stats(s *Stats) {
	s.DetectAnnounces, s.DetectVerdicts = r.announces.Load(), r.verdicts.Load()
	s.AnnounceFences = r.barriers.Load()
	s.Witnesses, s.WitnessFences = r.witnesses.Load(), r.witnessFences.Load()
	s.Unverdicted = r.unverdicted.Load()
}

// descState is the per-Ctx armed-operation state of the engine-integrated
// descriptor protocol.
type descState struct {
	armed bool
	// annOpen: the announce line is armed on the context's flush set and
	// the operation has not yet passed the barrier or dropped it; whether a
	// fence has flushed it since is the flush set's to say (Armed).
	// announceBarrier closes it before the first install.
	annOpen bool
	client  int
	seq     uint64
	// tag is the operation's tag on an engine that tags (0: none), and
	// claimed says MarkTag handed it out for the context's next CAS.
	tag     uint64
	claimed bool
	// nodeTag says NodeTag handed the tag out for a write-once word, which
	// the engine names in the announce when it is initialized (named);
	// marked says the operation's tagged mark is installed and named, and
	// its node's retire still has to witness it.
	nodeTag, named, marked bool
}

// doomed is a tagged write-once word that the context's next CAS starts to
// unlink (Ctx.Doom, O6).
type doomed struct {
	ref   Ref
	field int
	w     uint64
}

// MarkTag returns the bits a structure ORs into the word whose install is
// the armed operation's linearization point — a delete's level-0 mark — so
// that the word names its operation (detect.go "Tags"), and claims the
// context's next CAS as that install: if it installs a word carrying the
// tag, it skips the announce barrier. It returns 0 and claims nothing when
// no operation is armed or the engine does not tag.
func (c *Ctx) MarkTag() uint64 {
	if c.det.tag == 0 {
		return 0
	}
	c.det.claimed = true
	return c.det.tag << TagShift
}

// NodeTag returns the bits a structure ORs into a write-once word of the
// object the armed operation publishes as its effect — a skip-list insert's
// tower height — so that the word testifies for the operation once the
// object is linked (detect.go "Evidence instead of a verdict"). The engine
// names the word in the announce when StoreInit writes it, and an operation
// that then returns true is acknowledged on that evidence: the structure
// must return true only if that very object was linked. It returns 0 when
// no operation is armed or the engine does not tag.
func (c *Ctx) NodeTag() uint64 {
	if c.det.tag == 0 {
		return 0
	}
	c.det.nodeTag = true
	return c.det.tag << TagShift
}

// Doom tells the engine that the context's next CAS starts the unlink of
// the object at ref — a skip-list delete's level-0 mark — whose write-once
// field holds w as the structure read it. If w carries an insert's tag the
// CAS witnesses that insert first (O6).
func (c *Ctx) Doom(ref Ref, field int, w uint64) {
	if w>>TagShift != 0 {
		c.doom = doomed{ref: ref, field: field, w: w}
	}
}

// verdictPending reports whether a verdict of client awaits the context's
// next DetectDrain.
func (c *Ctx) verdictPending(client int) bool {
	for _, pv := range c.detPending {
		if pv.client == client {
			return true
		}
	}
	return false
}

// pendingVerdict is one deferred verdict awaiting its context's next
// DetectDrain.
type pendingVerdict struct {
	client int
	seq    uint64
	result bool
	rval   uint64
}

// verdictSettler is what the descriptor protocol needs from the engine it
// is embedded in — the only two things the engines' descriptor glue ever
// differed in.
type verdictSettler interface {
	// descFlushSet returns c's flush set on the descriptor region's device.
	descFlushSet(c *Ctx) *pmem.FlushSet
	// settle makes every effect a drain's verdicts may testify to durable
	// first: a verdict line must never reach the media ahead of its
	// operation's install.
	settle(c *Ctx)
}

// detector is the engine-integrated descriptor protocol — the Detector role
// — written once over a descRegion and embedded in both engine
// implementations.
type detector struct {
	desc *descRegion // nil with detectability off
	eng  verdictSettler
	// tagging: the engine installs tagged marks without the barrier
	// (Mirror only, O4).
	tagging bool
}

// dropAnnounce is called where the armed operation reaches its verdict. If
// no fence has run on the flush set since the announce was armed, the
// operation installed nothing and its announce line is still armed there:
// drop it, so that no later fence flushes a line nothing needs — the verdict
// alone testifies.
func (d *detector) dropAnnounce(c *Ctx) {
	if c.det.annOpen {
		c.det.annOpen = false
		d.eng.descFlushSet(c).DropAhead()
	}
}

// announceBarrier is the announce half of the ordering rule, enforced by
// construction: every durable-before-visible write of the engines (CAS,
// Store — not CASRelaxed or CASRebuilt, whose auxiliary and
// rebuilt updates no verdict testifies to) passes it first. If the armed operation's announce is still
// open it fences — and the fence flushes the armed line first — unless a
// fence on the flush set since the announce was armed (a read fence, a
// publish fence, a help-path persist) already flushed and committed it. An operation that
// never installs never fences here; its announce is dropped at its verdict.
func (d *detector) announceBarrier(c *Ctx) {
	if c.det.annOpen {
		d.closeAnnounce(c)
	}
}

// closeAnnounce is the barrier's out-of-line half, so that the test above
// inlines into every CAS and Store as one load and one branch.
func (d *detector) closeAnnounce(c *Ctx) {
	c.det.annOpen = false
	if fs := d.eng.descFlushSet(c); fs.Armed() {
		d.desc.barriers.Add(1)
		d.desc.Dev.Fence(fs)
	}
}

// ownTag reports whether installing w is the install MarkTag claimed,
// carrying the armed operation's tag, and consumes the claim. Such an
// install skips the barrier and must fence for itself (O1); the announce
// stays open, so that a later install of the operation passes the barrier
// as usual, which finds it covered by that fence.
func (d *detector) ownTag(c *Ctx, w uint64) bool {
	if !c.det.claimed {
		return false
	}
	c.det.claimed = false
	return w>>TagShift == c.det.tag
}

// DetectBeginDeferred arms the descriptor protocol for (client, seq): it
// writes the announce line and arms it on the context's flush set. A
// pending verdict about to be *lapped* — one for the same client whose
// entry seq would overwrite (seq - pending ≥ Ring) — forces a drain first:
// the Detect inference "entry lapped past seq implies seq committed" is
// sound only if the lapped operation's effect and verdict are durable
// before the overwriting announce can be. Within the ring window no drain
// is forced — that is the pipelining win: a client keeps up to Ring
// operations pending under one eventual drain fence.
func (d *detector) DetectBeginDeferred(c *Ctx, client int, seq, kind, key, val uint64) {
	if d.desc == nil {
		panic("engine: detectability is disabled (Config.Clients == 0)")
	}
	if c.det.armed {
		panic("engine: DetectBeginDeferred while a detectable operation is already armed")
	}
	if ringCollision(c.detPending, client, seq, d.desc.Ring) {
		d.DetectDrain(c)
	}
	d.desc.arm(d.eng.descFlushSet(c), client, seq, kind, key, val)
	c.det = descState{armed: true, client: client, seq: seq, annOpen: d.desc.Durable}
	if d.tagging {
		c.det.tag = d.desc.tag(client, seq)
	}
}

// ringCollision reports whether arming (client, seq) would overwrite the
// ring entry of a verdict still pending on c — pendings are FIFO, so the
// client's oldest pending seq decides.
func ringCollision(pending []pendingVerdict, client int, seq uint64, ring int) bool {
	for _, pv := range pending {
		if pv.client == client {
			return seq-pv.seq >= uint64(ring)
		}
	}
	return false
}

// DetectEndDeferred records the armed operation's verdict (with its
// auxiliary return word) for the next drain and disarms the context.
func (d *detector) DetectEndDeferred(c *Ctx, result bool, rval uint64) {
	if d.desc == nil || !c.det.armed {
		return
	}
	d.dropAnnounce(c)
	if result && c.det.named {
		// The operation linked the object whose word its announce names:
		// the publish fence committed both, and the link's own fence ran
		// before this call. That is its evidence, and it needs no verdict.
		d.desc.evidence[d.desc.index(c.det.client, c.det.seq)].Store(c.det.seq)
		d.desc.unverdicted.Add(1)
	} else {
		c.detPending = append(c.detPending, pendingVerdict{
			client: c.det.client, seq: c.det.seq, result: result, rval: rval,
		})
	}
	c.det = descState{}
}

// DetectDrain publishes c's deferred verdicts: the engine first settles
// every install whose durability was deferred, then the verdict lines flush
// and one End fence commits them — together with whatever no verdict
// testifies to (relaxed Auxiliary lines). A linearizing install never rides
// the verdicts' End fence, so a crash can never persist a verdict whose
// effect vanished.
//
// Each client gets one line, for its newest pending seq, whose bits carry
// the results of its earlier pending seqs. A verdict with a return word
// keeps a line of its own; every line of the client carries the bits of
// every earlier seq without one. Whichever of a client's lines a crash
// keeps, the seqs it vouches for are then a prefix of the batch with their
// results — only a return-word seq whose own line was lost reads Committed
// without one (it installed, so its announce is durable).
func (d *detector) DetectDrain(c *Ctx) {
	if len(c.detPending) == 0 {
		return
	}
	if c.det.armed {
		panic("engine: DetectDrain while a detectable operation is armed")
	}
	d.eng.settle(c)
	fs := d.eng.descFlushSet(c)
	// Walk the batch newest first, so that every later line of a client
	// exists by the time an earlier seq needs carrying.
	lines := c.detLines[:0]
	for i := len(c.detPending) - 1; i >= 0; i-- {
		pv := c.detPending[i]
		carried := false
		for j := range lines {
			if pv.rval == 0 && lines[j].client == pv.client && lines[j].carry(pv.seq, pv.result) {
				carried = true
			}
		}
		if !carried {
			lines = append(lines, drainLine{client: pv.client, verdictLine: verdictLine{
				seq: pv.seq, result: pv.result, rval: pv.rval,
			}})
		}
	}
	for i := len(lines) - 1; i >= 0; i-- {
		d.desc.publish(fs, lines[i].client, lines[i].verdictLine)
	}
	d.desc.verdicts.Add(uint64(len(c.detPending)))
	c.detLines = lines[:0]
	c.detPending = c.detPending[:0]
	d.desc.End(fs)
}

// drainLine is one verdict line a drain writes.
type drainLine struct {
	client int
	verdictLine
}

func (d *detector) Detect(client int, seq uint64) DetectResult {
	if d.desc == nil {
		panic("engine: Detect with detectability disabled (Config.Clients == 0)")
	}
	return d.desc.Detect(client, seq)
}

// DetectOp describes one detectable operation for ExactlyOnce.
type DetectOp struct {
	Client int
	Seq    uint64
	Kind   uint64 // a Detect* kind, recorded in the announce line
	Key    uint64
	Val    uint64
	// Run executes the operation body under the armed descriptor.
	Run func(c *Ctx) bool
}

// Outcome is the result of an ExactlyOnce call.
type Outcome struct {
	// Ran reports whether the operation body executed in this call (false
	// when the descriptor already proved it committed, or the verdict was
	// Unknown and replay was not requested).
	Ran bool
	// Verdict is the Detect answer that routed the call.
	Verdict Verdict
	// Result is the operation's return value; valid when Known.
	Result bool
	Known  bool
	Rval   uint64
}

// ExactlyOnce runs op at most once across crashes: it consults Detect for
// (op.Client, op.Seq) and replays the operation iff the descriptor proves
// it did not commit. With replayUnknown, an Unknown verdict is also
// replayed — sound for idempotent set operations, whose re-execution after
// a took-effect cut changes no state (only the returned boolean may differ
// from what the cut execution would have returned); leave it false for
// non-idempotent operations such as queue updates. A replay drains c before
// it returns, so its verdict is durable by then.
func ExactlyOnce(e Detector, c *Ctx, op DetectOp, replayUnknown bool) Outcome {
	d := e.Detect(op.Client, op.Seq)
	switch {
	case d.Verdict == Committed:
		return Outcome{Verdict: Committed, Result: d.Result, Known: d.KnownResult, Rval: d.Rval}
	case d.Verdict == Unknown && !replayUnknown:
		return Outcome{Verdict: Unknown}
	}
	e.DetectBeginDeferred(c, op.Client, op.Seq, op.Kind, op.Key, op.Val)
	res := op.Run(c)
	e.DetectEndDeferred(c, res, 0)
	e.DetectDrain(c)
	return Outcome{Ran: true, Verdict: d.Verdict, Result: res, Known: true}
}
