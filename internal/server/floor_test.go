package server

import (
	"bufio"
	"net"
	"sync"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/wire"
)

// BenchmarkLoopbackFloor puts the served tier beside the floor under it:
//
//	go test -run '^$' -bench LoopbackFloor ./internal/server/
//
// The echo rows are a bare framed echo over loopback — its reader decodes
// each request and answers it itself, writing once it holds no further
// whole frame — driven by Client, so the client side (flush only when a read
// would block) is the served rows' own. The served rows run mirrord's
// server in process: a HELLO does no engine work, and an INSERT/DELETE pair
// over a small key range keeps the set's size fixed while every frame
// commits one mutation. Depth 1 runs two connections, as serve-a-sync does;
// depth 8 runs one, as serve-a-pipe does. kops/s is frames per second over
// all connections; us/frame is Little's law, connections × depth ÷ kops/s.
// HELLO rows go through Client.Do, the pipelined rows through Submit (GET
// frames to the echo, which answers any op alike).
func BenchmarkLoopbackFloor(b *testing.B) {
	for _, bc := range []struct {
		name         string
		served       bool
		op           wire.Op
		conns, depth int
	}{
		{"echo/depth1", false, wire.OpHello, 2, 1},
		{"echo/depth8", false, wire.OpGet, 1, 8},
		{"hello/depth1", true, wire.OpHello, 2, 1},
		{"insert/depth8", true, wire.OpInsert, 1, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var addr string
			if !bc.served {
				addr = echoServer(b)
			} else {
				s, err := New(Config{Kind: engine.MirrorDRAM, Words: 1 << 18})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Listen("127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { s.Close() })
				addr = s.Addr().String()
			}
			clients := make([]*Client, bc.conns)
			for i := range clients {
				c, err := Dial(addr, uint32(i+1))
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { c.Close() })
				if _, err := c.SetPipeline(bc.depth); err != nil {
					b.Fatal(err)
				}
				clients[i] = c
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, c := range clients {
				wg.Add(1)
				go func(c *Client, n int) {
					defer wg.Done()
					for j := 0; j < n; j++ {
						var err error
						switch op, key := bc.op, uint64(j/2%1024+1); {
						case op == wire.OpHello:
							_, err = c.Do(wire.Request{Op: op, Client: c.ID(), Val: 1})
						case op == wire.OpInsert && j%2 == 1:
							_, err = c.Submit(wire.OpDelete, key, 0, 0)
						default:
							_, err = c.Submit(op, key, key, 0)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
					if _, err := c.Drain(); err != nil {
						b.Error(err)
					}
				}(c, (b.N+i)/bc.conns)
			}
			wg.Wait()
			kops := float64(b.N) / b.Elapsed().Seconds() / 1e3
			b.ReportMetric(kops, "kops/s")
			b.ReportMetric(float64(bc.conns*bc.depth)/kops*1e3, "us/frame")
		})
	}
}

// echoServer serves a bare framed echo on a loopback port: every request is
// answered with an OK response carrying its Val, which a HELLO reads as the
// granted window.
func echoServer(b *testing.B) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				rd := bufio.NewReader(nc)
				buf, out := make([]byte, 64), []byte(nil)
				for {
					req, err := wire.ReadRequest(rd, buf)
					if err != nil {
						return
					}
					out = wire.AppendResponse(out, wire.Response{Status: wire.StatusOK, Result: true, Known: true, Rval: req.Val})
					if !frameBuffered(rd) {
						if _, err := nc.Write(out); err != nil {
							return
						}
						out = out[:0]
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}
