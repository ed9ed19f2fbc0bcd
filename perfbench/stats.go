package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"apna/internal/border"
	"apna/internal/wire"
)

// quantile returns the nearest-rank q-quantile of v (v is not
// modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// rateBlock is the number of batches per block for blockRate.
const rateBlock = 1000

// blockRate splits the per-batch times into blocks of rateBlock
// batches and returns the median of the blocks' frame rates per
// second, so a burst of interference moves one block, not the result.
// Every batch carries perBatch frames.
func blockRate(ns []float64, perBatch int) float64 {
	blocks := max(len(ns)/rateBlock, 1)
	per := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		var t float64
		lo, hi := b*len(ns)/blocks, (b+1)*len(ns)/blocks
		for _, v := range ns[lo:hi] {
			t += v
		}
		if t > 0 {
			per = append(per, float64((hi-lo)*perBatch)/(t/1e9))
		}
	}
	return quantile(per, 0.5)
}

// latSum is a running sum of latency samples.
type latSum struct {
	us float64
	n  int
}

func (l latSum) mean() float64 { return l.us / float64(l.n) }

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rusageThread is RUSAGE_THREAD: the calling thread's usage.
const rusageThread = 1

// threadCPU returns the calling OS thread's user+system CPU seconds.
// The measuring goroutine is locked to its thread, so this is the
// benchmark loop's own CPU time, apart from the GC workers.
func threadCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// verdictMetrics are the verdicts the workloads' frame mix reaches.
var verdictMetrics = []border.Verdict{
	border.VerdictForward,
	border.VerdictDropBadEphID,
	border.VerdictDropExpired,
	border.VerdictDropRevoked,
	border.VerdictDropRevokedRemote,
	border.VerdictDropBadMAC,
}

// layerMetrics turns the traced run's spans and counters into the
// per-layer metrics.
func layerMetrics(put func(string, float64, string), lt layerTotals, fs *fwdStats, cs *ctrlStats) {
	for _, name := range []string{
		"border.egress", "border.transit", "border.ingress",
		"ephid.open", "hostdb.mackey", "border.revoked_contains",
		"wire.mac_apply", "wire.mac_verify", "wire.frame",
		"session.seal", "session.open",
	} {
		put(name+"_ns", lt.selfPerCall(name), "ns")
	}
	for _, v := range verdictMetrics {
		put("border.verdict."+v.String(), float64(fs.verdicts[v]), "count")
	}
	for _, name := range []string{
		"ms.handle", "crypto.sign", "crypto.keygen", "cert.verify", "crypto.x25519",
		"aa.verify_evidence", "acct.shutoff_request", "acct.receipt_verify",
	} {
		put(name+"_us", lt.durPerCall(name)/1e3, "us")
	}
	for op := opIssue; op < opCount; op++ {
		n := float64(max(len(cs.latUs[op]), 1))
		put("netsim.frames_per_"+opNames[op], float64(cs.events[op])/n, "frames/op")
		if op != opIssue && op != opRenew {
			put("netsim.bytes_per_"+opNames[op], float64(cs.bytes[op])/n, "B/op")
		}
	}
}

// sessionAllocs counts heap allocations per Seal and per Open on one
// of the rig's session pairs, at the rig's message size.
func sessionAllocs(fr *fwdRig) (seal, open float64) {
	const n = 256
	l := fr.lanes[0]
	snd, rcv := l.send[0], l.recv[0]
	h := wire.Header{SrcAID: l.src.aid, DstAID: l.dst.aid, SrcEphID: l.src.ephids[0], DstEphID: l.dst.ephids[0]}
	aad := make([][]byte, n)
	cts := make([][]byte, n)
	seqs := make([]uint64, n)
	for i := range aad {
		h.Nonce = snd.NextSeq()
		seqs[i] = h.Nonce
		aad[i] = appendAAD(make([]byte, 0, aadLen), &h)
	}
	pt := fr.payloads[0]
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range cts {
		cts[i], _ = snd.Seal(pt, aad[i])
	}
	runtime.ReadMemStats(&m1)
	for i := range cts {
		_, _ = rcv.Open(cts[i], aad[i])
	}
	runtime.ReadMemStats(&m2)
	for _, s := range seqs {
		_ = rcv.AcceptSeq(s) // keep the pair's replay window in step
	}
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m2.Mallocs-m1.Mallocs) / n
}
