package simnet

import (
	"fmt"
	"testing"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
)

func benchMach(b *testing.B) *machine.Config {
	b.Helper()
	m, err := machine.Edison(96, 24)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchTraffic injects a random-permutation traffic pattern and runs
// the network to completion.
func benchTraffic(b *testing.B, m Model, cfg Config, msgs int, bytes int64) {
	mach := benchMach(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var eng des.Engine
		net, err := New(m, &eng, mach, cfg)
		if err != nil {
			b.Fatal(err)
		}
		delivered := 0
		for k := 0; k < msgs; k++ {
			src := int32(k % 96)
			dst := int32((k*37 + 11) % 96)
			if src == dst {
				dst = (dst + 1) % 96
			}
			net.Send(src, dst, bytes, func() { delivered++ })
		}
		eng.Run()
		if delivered != msgs {
			b.Fatalf("delivered %d of %d", delivered, msgs)
		}
	}
}

// Per-model message throughput at the two ends of the size range.
func BenchmarkPacketSmallMsgs(b *testing.B)     { benchTraffic(b, Packet, Config{}, 512, 1024) }
func BenchmarkPacketLargeMsgs(b *testing.B)     { benchTraffic(b, Packet, Config{}, 64, 1<<20) }
func BenchmarkFlowSmallMsgs(b *testing.B)       { benchTraffic(b, Flow, Config{}, 512, 1024) }
func BenchmarkFlowLargeMsgs(b *testing.B)       { benchTraffic(b, Flow, Config{}, 64, 1<<20) }
func BenchmarkPacketFlowSmallMsgs(b *testing.B) { benchTraffic(b, PacketFlow, Config{}, 512, 1024) }
func BenchmarkPacketFlowLargeMsgs(b *testing.B) { benchTraffic(b, PacketFlow, Config{}, 64, 1<<20) }

// BenchmarkPacketSizeAblation sweeps the packet model's granularity:
// smaller packets mean more events (the accuracy/cost knob).
func BenchmarkPacketSizeAblation(b *testing.B) {
	for _, sz := range []int64{256, 512, 1024, 4096} {
		b.Run(fmt.Sprintf("%dB", sz), func(b *testing.B) {
			benchTraffic(b, Packet, Config{PacketBytes: sz}, 64, 1<<20)
		})
	}
}

// BenchmarkFlowChurn stresses the ripple path: many short flows
// starting and finishing while long flows persist.
func BenchmarkFlowChurn(b *testing.B) {
	mach := benchMach(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var eng des.Engine
		net, err := New(Flow, &eng, mach, Config{})
		if err != nil {
			b.Fatal(err)
		}
		// Four long background flows.
		for k := 0; k < 4; k++ {
			net.Send(int32(k), int32(95-k), 8<<20, func() {})
		}
		// A stream of short flows arriving over time.
		var spawn func(k int)
		spawn = func(k int) {
			if k >= 400 {
				return
			}
			net.Send(int32(8+k%40), int32(50+k%40), 64<<10, func() {})
			eng.After(20*simtime.Microsecond, func() { spawn(k + 1) })
		}
		eng.After(0, func() { spawn(0) })
		eng.Run()
	}
	b.StopTimer()
}

// BenchmarkFlowSharedRoutes is an all-to-all of 64 KiB messages among
// 64 ranks on 4 nodes, posted as 63 pairwise-exchange rounds 5 µs
// apart: rounds overlap, so each recompute fills hundreds of flows that
// share 12 node-pair routes, the shape of a collective on fat nodes.
func BenchmarkFlowSharedRoutes(b *testing.B) {
	mach, err := machine.Edison(64, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var eng des.Engine
		net, err := New(Flow, &eng, mach, Config{})
		if err != nil {
			b.Fatal(err)
		}
		delivered := 0
		done := func() { delivered++ }
		for round := int32(1); round < 64; round++ {
			eng.At(simtime.Time(round)*5*simtime.Microsecond, func() {
				for src := int32(0); src < 64; src++ {
					net.Send(src, (src+round)%64, 64<<10, done)
				}
			})
		}
		eng.Run()
		if delivered != 64*63 {
			b.Fatalf("delivered %d of %d", delivered, 64*63)
		}
	}
}

// BenchmarkParallelPacketLPs scales the CMB-parallel packet network
// over LP counts (uniform random-permutation traffic). On multicore
// hosts this shows PDES speedup; the null-message overhead is visible
// either way.
func BenchmarkParallelPacketLPs(b *testing.B) {
	mach, err := machine.Hopper(96, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, lps := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lps=%d", lps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pp, err := NewParallelPacket(mach, Config{}, lps)
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < 96; r++ {
					d := (r*11 + 5) % 96
					if d != r {
						pp.Inject(0, int32(r), int32(d), 256<<10)
					}
				}
				pp.Run()
			}
		})
	}
}
