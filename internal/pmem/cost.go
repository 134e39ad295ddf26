package pmem

// CostModel is a device's cost table: the modeled nanoseconds of one access
// of each kind on the simulated medium. The absolute numbers matter less
// than the ratios (§6.1 of the paper: NVMM reads ≈ 3× DRAM reads, flushes
// and fences each cost on the order of a cache miss). Nothing ever waits
// for these costs: a counted pass (Count) multiplies a device's exact
// access counts by its table.
type CostModel struct {
	LoadNS  int // per 8-byte load (and per LoadPair)
	StoreNS int // per 8-byte store (and per CAS/Add/DWCAS attempt)
	FlushNS int // per CLWB-equivalent flush
	FenceNS int // per SFENCE-equivalent fence
}

// DRAMModel approximates conventional DRAM: a uniform modest access cost and
// no meaningful flush semantics (flushing DRAM buys no durability).
func DRAMModel() CostModel {
	return CostModel{LoadNS: 20, StoreNS: 20, FlushNS: 20, FenceNS: 20}
}

// NVMMModel approximates Intel Optane DC in App-Direct mode relative to
// DRAMModel: reads about 3× slower, writes somewhat slower still, and
// explicit write-backs costing roughly an LLC miss each.
func NVMMModel() CostModel {
	return CostModel{LoadNS: 60, StoreNS: 75, FlushNS: 60, FenceNS: 100}
}

// Tally is what a counted pass saw on one device: its access counts and the
// device's cost table.
type Tally struct {
	Model                          CostModel
	Loads, Stores, Flushes, Fences uint64
}

// NS is the tally's modeled cost: Σ count × the table's cost per access.
func (t Tally) NS() float64 {
	m := t.Model
	return float64(t.Loads)*float64(m.LoadNS) + float64(t.Stores)*float64(m.StoreNS) +
		float64(t.Flushes)*float64(m.FlushNS) + float64(t.Fences)*float64(m.FenceNS)
}

// Count runs fn with every device of devs counting and returns, in devs
// order, what fn did on each. A counting device closes its gate, so every
// load and store takes the slow path, which tallies it; flushes and fences
// are counted always. The tallies include any other goroutine's accesses to
// the devices while fn runs. Count does not nest on a device.
func Count(devs []*Device, fn func()) []Tally {
	out := make([]Tally, len(devs))
	for i, d := range devs {
		out[i] = d.tally()
		d.setState(stateCount)
	}
	fn()
	for i, d := range devs {
		d.clearState(stateCount)
		t, t0 := d.tally(), out[i]
		out[i] = Tally{d.model, t.Loads - t0.Loads, t.Stores - t0.Stores, t.Flushes - t0.Flushes, t.Fences - t0.Fences}
	}
	return out
}

// tally reads the device's cumulative counts.
func (d *Device) tally() Tally {
	fl, fe := d.Counters()
	return Tally{d.model, d.loads.Load(), d.stores.Load(), fl, fe}
}
