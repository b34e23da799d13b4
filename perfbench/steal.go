package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stealBlock is the interval over which the open-loop phase samples the
// machine's CPU steal time.
const stealBlock = time.Second

// stealBound is the share of this machine's CPU time the hypervisor may
// take (steal, in /proc/stat) during a measurement before it leaves the
// reported figures: while the host withholds the CPU, a latency or a
// set-up time measures the host, not the program.
const stealBound = 0.05

// minKeptShare is the least share of a run's measurements its figures
// rest on. When the measurements within stealBound make up less, the
// least-stolen ones are added until they reach it: a run on a host that
// steals throughout still reports, from its least disturbed half, and its
// info line shows the steal it saw.
const minKeptShare = 0.5

// cpuStat is the aggregate CPU time counters of /proc/stat, in ticks.
type cpuStat struct{ steal, total uint64 }

// readCPUStat parses the aggregate "cpu" line of /proc/stat. ok is false
// where the file or the steal column is missing.
func readCPUStat() (cpuStat, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}, false
	}
	return parseCPUStat(sc.Text())
}

// parseCPUStat reads one aggregate "cpu" line: user nice system idle
// iowait irq softirq steal [guest guest_nice]. Guest time is already
// counted in user and nice, so the total is the first eight columns.
func parseCPUStat(line string) (cpuStat, bool) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}, false
	}
	var s cpuStat
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}, false
		}
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s, true
}

// stealShare is the part of the CPU time between two samples that was
// stolen; 0 when no time passed or a sample is missing.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stealMeter samples the steal share of consecutive blocks from its start
// until stop.
type stealMeter struct {
	stopc  chan struct{}
	done   chan struct{}
	shares []float64
}

func startStealMeter(every time.Duration) *stealMeter {
	m := &stealMeter{stopc: make(chan struct{}), done: make(chan struct{})}
	prev, ok := readCPUStat()
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			stopped := false
			select {
			case <-t.C:
			case <-m.stopc:
				stopped = true
			}
			cur, curOK := readCPUStat()
			share := 0.0
			if ok && curOK {
				share = stealShare(prev, cur)
			}
			m.shares = append(m.shares, share)
			prev, ok = cur, curOK
			if stopped {
				return
			}
		}
	}()
	return m
}

// stop ends sampling and returns the steal share of each block, the last
// one partial.
func (m *stealMeter) stop() []float64 {
	close(m.stopc)
	<-m.done
	return m.shares
}

// unstolen picks the measurements figures are taken over: every one
// whose steal share is within stealBound and, when those weigh less than
// minKeptShare of the total, the least-stolen of the rest until they do.
// weight[i] is how many samples measurement i stands for.
func unstolen(steal []float64, weight []int) []bool {
	keep := make([]bool, len(steal))
	order := make([]int, len(steal))
	total := 0
	for i := range steal {
		order[i] = i
		total += weight[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	kept := 0
	for _, i := range order {
		if steal[i] > stealBound && float64(kept) >= minKeptShare*float64(total) {
			break
		}
		keep[i] = true
		kept += weight[i]
	}
	return keep
}

// cleanLatencies returns the latencies of the open-loop requests due in
// the blocks unstolen keeps, and the share of the phase's requests they
// make up. sched is the phase's schedule; steal holds a share per
// stealBlock from the phase's start.
func cleanLatencies(r openLoopResult, sched []time.Duration, steal []float64) (lat []float64, share float64) {
	if len(r.latencyMS) == 0 {
		return nil, 0
	}
	block := func(i int) int { return min(int(sched[i]/stealBlock), len(steal)-1) }
	if len(steal) == 0 {
		return r.latencyMS, 1
	}
	weight := make([]int, len(steal))
	for i := range r.latencyMS {
		weight[block(i)]++
	}
	keep := unstolen(steal, weight)
	for i, l := range r.latencyMS {
		if keep[block(i)] {
			lat = append(lat, l)
		}
	}
	return lat, float64(len(lat)) / float64(len(r.latencyMS))
}
