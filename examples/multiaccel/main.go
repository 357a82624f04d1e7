// Multi-accelerator example: the paper notes the approach "extends
// naturally to any Device-Accelerator(s) combinations". Here the edge host
// can offload each of the three Table-I tasks to either a local P100 over
// PCIe ("A") or a far faster remote server behind a high-latency 5G link
// ("B") — 3³ = 27 equivalent algorithms. The clustering shows which
// combinations are worth it: the remote server only pays off for the
// largest task, and only when the link is idle enough.
//
//	go run ./examples/multiaccel
package main

import (
	"fmt"
	"log"
	"sort"

	"relperf/internal/compare"
	"relperf/internal/core"
	"relperf/internal/device"
	"relperf/internal/sim"
	"relperf/internal/stats"
	"relperf/internal/workload"
)

func main() {
	p100 := device.P100()
	server := device.P100()
	server.Name = "remote-dgx"
	server.PeakFlops *= 4 // a multi-GPU server node
	platform := &sim.MultiPlatform{
		Devices: []*device.Device{device.XeonCore(), p100, server},
		Links:   []*device.Link{nil, device.PCIe3x16(), device.FiveG()},
	}

	prog := workload.TableI(10, p100.PeakFlops)
	// Per-device efficiencies: the remote server sustains 4x the P100's
	// rate on the same op chain (more SMs hide the chain's serialization).
	effs := make([][]float64, len(prog.Tasks))
	for i := range prog.Tasks {
		a := prog.Tasks[i].AccelEff
		effs[i] = []float64{0, a, a} // same fraction of a 4x peak
	}

	s, err := sim.NewMultiSimulator(platform, 7)
	if err != nil {
		log.Fatal(err)
	}
	s.Effs = effs

	placements := sim.EnumerateMultiPlacements(3, 3)
	fmt.Printf("%d equivalent algorithms over %d devices\n\n", len(placements), len(platform.Devices))

	samples := make([][]float64, len(placements))
	for i, pl := range placements {
		samples[i], err = s.Sample(prog, pl, 30)
		if err != nil {
			log.Fatal(err)
		}
	}

	proto := compare.NewBootstrap(11)
	fork := func(seed uint64) core.CompareFunc {
		cmp := proto.Fork(seed)
		return func(i, j int) (compare.Outcome, error) { return cmp.Compare(samples[i], samples[j]) }
	}
	res, err := core.Cluster(len(placements), core.ClusterOptions{Reps: 60, Seed: 13, Fork: fork})
	if err != nil {
		log.Fatal(err)
	}
	fa, err := res.Finalize()
	if err != nil {
		log.Fatal(err)
	}

	// Print the top two and bottom classes with mean times.
	type row struct {
		name string
		rank int
		mean float64
	}
	rows := make([]row, len(placements))
	for i, pl := range placements {
		rows[i] = row{pl.String(), fa.Rank[i], stats.Mean(samples[i])}
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].rank != rows[b].rank {
			return rows[a].rank < rows[b].rank
		}
		return rows[a].mean < rows[b].mean
	})
	fmt.Printf("%d performance classes; fastest and slowest:\n", fa.K)
	for _, r := range rows {
		if r.rank <= 2 || r.rank == fa.K {
			fmt.Printf("  C%d  alg%s  %.2f ms\n", r.rank, r.name, r.mean*1e3)
		}
	}

	// Where did the remote server help?
	bestWithB := ""
	for _, r := range rows {
		for _, c := range r.name {
			if c == 'B' {
				bestWithB = r.name
				break
			}
		}
		if bestWithB != "" {
			fmt.Printf("\nbest algorithm using the remote server: alg%s (class C%d)\n",
				bestWithB, r.rank)
			break
		}
	}
}
