package main

import (
	"fmt"
	"io"
	"math"
	"slices"

	"scalamedia/internal/wire"
)

// metric is one reported figure. MapsTo and Share are set on per-layer
// metrics: the end-to-end metric the layer should move and the layer's
// measured share of it (NaN when the two have no common unit).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Note   string  `json:"note,omitempty"`
	MapsTo string  `json:"maps_to,omitempty"`
	Share  float64 `json:"-"`
}

// summaryE2E names the end-to-end metrics of the JSON summary line: those
// every workload defines and that repeat run to run on the gated
// workloads. README.md explains why cpu_us_per_op and latency_p50_ms,
// which are printed, are not among them.
var summaryE2E = []string{"setup_s", "deliver_rate", "latency_p90_ms", "datagrams_per_op"}

// summaryLayers names the per-layer metrics of the JSON summary line of a
// traced run: those every workload measures and the gated workloads
// (BENCHMARK.json) can move. The rest are printed but kept out of it:
// scalamedia.publish_ms, bulk.first_progress_ms and bench.gen_late_ms_p99
// exist on some workloads only, and transport.syscalls_per_datagram,
// transport.rx_drops_per_op, rmcast.order_dgrams_per_op and
// member.views_during_run read 0 on every healthy in-process run.
var summaryLayers = []string{
	"scalamedia.send_us_p50", "scalamedia.send_us_p99",
	"noderun.loop_wait_us_p50", "noderun.loop_wait_us_p99",
	"transport.flush_us_p50", "transport.flush_us_p99", "transport.datagrams_per_flush",
	"transport.bytes_per_op",
	"rmcast.data_dgrams_per_op", "rmcast.repair_dgrams_per_op", "rmcast.request_dgrams_per_op",
	"rmcast.stable_dgrams_per_op", "rmcast.nacks_per_op",
	"rmcast.useful_repair_ratio", "rmcast.history_len_peak", "rmcast.stability_lag_p50",
	"failure.heartbeat_dgrams_per_s",
	"bulk.sym_dgrams_per_object", "bulk.req_dgrams_per_object",
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks, or 0 for an empty slice.
func quantile[T uint32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	f := pos - float64(i)
	return float64(sorted[i])*(1-f) + float64(sorted[i+1])*f
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tail describes a percentile's sample base: the count and how many
// samples lie beyond it.
func tail(n int, q float64) string {
	return fmt.Sprintf("n=%d, %d beyond", n, int(float64(n)*(1-q)))
}

// endToEnd computes the end-to-end metrics of one pass.
func endToEnd(w *workload, o *outcome) []metric {
	ops := float64(max(o.delivered, 1))
	lat := slices.Clone(o.lat)
	slices.Sort(lat)
	latQ := func(q float64) float64 { return quantile(lat, q) / 1e6 }
	latNote := func(q float64) string { return tail(len(lat), q) + ", due time to MessageReceived" }
	if w.object > 0 {
		// An op is one object reconstructed at one receiver.
		ms := slices.Clone(o.opMs)
		slices.Sort(ms)
		latQ = func(q float64) float64 { return quantile(ms, q) }
		latNote = func(q float64) string { return tail(len(ms), q) + ", Publish to each receiver's ObjectReceived" }
	}
	m := []metric{
		{Name: "setup_s", Unit: "s", Value: median(o.setups),
			Note: fmt.Sprintf("median of %d setups, first Start to full view everywhere", len(o.setups))},
		{Name: "send_rate", Unit: "msg/s", Value: ratio(float64(o.sends), o.sendPhase.Seconds()),
			Note: fmt.Sprintf("%d successful calls in %.3f s", o.sends, o.sendPhase.Seconds())},
		{Name: "deliver_rate", Unit: "op/s", Value: ratio(float64(o.delivered), o.deliverPhase.Seconds()),
			Note: fmt.Sprintf("%d ops, first send to last delivery", o.delivered)},
		{Name: "latency_p50_ms", Unit: "ms", Value: latQ(0.5), Note: latNote(0.5)},
		{Name: "latency_p90_ms", Unit: "ms", Value: latQ(0.9), Note: latNote(0.9)},
		{Name: "latency_p99_ms", Unit: "ms", Value: latQ(0.99), Note: latNote(0.99)},
	}
	if w.object > 0 {
		m = append(m, metric{Name: "bulk_p50_ms", Unit: "ms", Value: median(o.objectMs),
			Note: fmt.Sprintf("n=%d objects, Publish to the last receiver's ObjectReceived", len(o.objectMs))})
	}
	return append(m,
		metric{Name: "cpu_us_per_op", Unit: "us", Value: float64(o.cpu.Microseconds()) / ops,
			Note: fmt.Sprintf("%.3f s user+sys over the measured phase", o.cpu.Seconds())},
		metric{Name: "datagrams_per_op", Unit: "dgram", Value: float64(o.counters["transport.datagrams_sent"]) / ops,
			Note: fmt.Sprintf("%d datagrams", o.counters["transport.datagrams_sent"])},
		metric{Name: "rss_peak_mb", Unit: "MB", Value: o.rssMB, Note: "process peak resident set"},
		metric{Name: "error_rate", Unit: "fraction", Value: float64(min(o.fails.ops(w.opsPerCall()), o.ops)) / float64(max(o.ops, 1)),
			Note: fmt.Sprintf("%d failed of %d attempted", o.fails.ops(w.opsPerCall()), o.ops)},
	)
}

func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// kindSum adds the traced datagram counts of the given wire kinds.
func kindSum(o *outcome, kinds ...wire.Kind) float64 {
	var s uint64
	for _, k := range kinds {
		s += o.kinds[k]
	}
	return float64(s)
}

// perLayer computes the traced pass's per-layer metrics and each one's
// share of the end-to-end metric it should move, taken from the same
// traced pass (e2e).
func perLayer(w *workload, o *outcome, tr *tracer, e2e []metric) []metric {
	ops := float64(max(o.delivered, 1))
	objects := float64(0)
	if w.object > 0 {
		objects = float64(o.sends)
	}
	sorted := func(v []float64) []float64 { v = slices.Clone(v); slices.Sort(v); return v }
	send, probe, flush, late := sorted(tr.send.values()), sorted(tr.probe.values()), sorted(o.flushUs), sorted(tr.genLate.values())
	var flushTotal, batched float64
	for i, d := range o.flushUs {
		flushTotal += d
		batched += o.perFlush[i]
	}
	c := func(name string) float64 { return float64(o.counters[name]) }
	dgrams := c("transport.datagrams_sent")
	dgramShare := func(count float64) float64 { return ratio(count, dgrams) }
	latP50, latP99 := find(e2e, "latency_p50_ms"), find(e2e, "latency_p99_ms")
	cpuPerOp := find(e2e, "cpu_us_per_op")
	// The sender's wall time per call: senders run in parallel.
	callGap := ratio(float64(max(w.senders, 1))*1e6, find(e2e, "send_rate"))
	retrans, dups := c("rmcast.retransmits_recv"), c("rmcast.duplicates")
	useful := 0.0
	if retrans > 0 {
		useful = max(0, retrans-dups) / retrans
	}
	repair := kindSum(o, wire.KindRetrans)
	request := kindSum(o, wire.KindRepairReq, wire.KindNack, wire.KindNackBatch)
	order := kindSum(o, wire.KindOrderRange, wire.KindOrder, wire.KindOrderBatch)
	sym, req := kindSum(o, wire.KindBulkSym), kindSum(o, wire.KindBulkReq)
	nan := math.NaN()
	layers := []metric{
		{Name: "scalamedia.send_us_p50", Unit: "us", Value: quantile(send, 0.5), MapsTo: "send_rate", Share: ratio(quantile(send, 0.5), callGap),
			Note: fmt.Sprintf("Node.Send call (Publish on bulk), n=%d", len(send))},
		{Name: "scalamedia.send_us_p99", Unit: "us", Value: quantile(send, 0.99), MapsTo: "send_rate", Share: ratio(quantile(send, 0.99), callGap),
			Note: tail(len(send), 0.99)},
		{Name: "noderun.loop_wait_us_p50", Unit: "us", Value: quantile(probe, 0.5), MapsTo: "latency_p50_ms", Share: ratio(quantile(probe, 0.5)/1e3, latP50),
			Note: fmt.Sprintf("Node.View round trip, n=%d", len(probe))},
		{Name: "noderun.loop_wait_us_p99", Unit: "us", Value: quantile(probe, 0.99), MapsTo: "latency_p99_ms", Share: ratio(quantile(probe, 0.99)/1e3, latP99),
			Note: tail(len(probe), 0.99)},
		{Name: "transport.flush_us_p50", Unit: "us", Value: quantile(flush, 0.5), MapsTo: "cpu_us_per_op", Share: ratio(flushTotal/ops, cpuPerOp),
			Note: fmt.Sprintf("non-empty Flush calls, n=%d; share is all flush time per op", len(flush))},
		{Name: "transport.flush_us_p99", Unit: "us", Value: quantile(flush, 0.99), MapsTo: "latency_p99_ms", Share: ratio(quantile(flush, 0.99)/1e3, latP99),
			Note: tail(len(flush), 0.99)},
		{Name: "transport.datagrams_per_flush", Unit: "dgram", Value: ratio(batched, float64(len(o.flushUs))), MapsTo: "cpu_us_per_op", Share: nan,
			Note: "a batching factor, not a part of the op"},
		{Name: "transport.syscalls_per_datagram", Unit: "count", MapsTo: "cpu_us_per_op", Share: nan,
			Value: ratio(c("transport.syscalls_tx")+c("transport.syscalls_rx"), dgrams+c("transport.datagrams_recv")),
			Note:  "(syscalls_tx+syscalls_rx)/(datagrams sent+received); 0 on the in-process fabric"},
		{Name: "transport.bytes_per_op", Unit: "B", Value: c("transport.bytes_sent") / ops, MapsTo: "cpu_us_per_op", Share: nan,
			Note: "bytes sent per op"},
		{Name: "transport.rx_drops_per_op", Unit: "dgram", Value: (c("transport.rx_dropped") + c("transport.queue_drops")) / ops,
			MapsTo: "datagrams_per_op", Share: ratio(c("transport.rx_dropped")+c("transport.queue_drops"), dgrams),
			Note: "rx_dropped + queue_drops; share is of datagrams sent"},
		{Name: "rmcast.data_dgrams_per_op", Unit: "dgram", Value: kindSum(o, wire.KindData) / ops, MapsTo: "datagrams_per_op", Share: dgramShare(kindSum(o, wire.KindData))},
		{Name: "rmcast.repair_dgrams_per_op", Unit: "dgram", Value: repair / ops, MapsTo: "datagrams_per_op", Share: dgramShare(repair)},
		{Name: "rmcast.request_dgrams_per_op", Unit: "dgram", Value: request / ops, MapsTo: "datagrams_per_op", Share: dgramShare(request),
			Note: "RepairReq + Nack + NackBatch"},
		{Name: "rmcast.stable_dgrams_per_op", Unit: "dgram", Value: kindSum(o, wire.KindStable) / ops, MapsTo: "datagrams_per_op", Share: dgramShare(kindSum(o, wire.KindStable))},
		{Name: "rmcast.order_dgrams_per_op", Unit: "dgram", Value: order / ops, MapsTo: "datagrams_per_op", Share: dgramShare(order),
			Note: "OrderRange + Order + OrderBatch"},
		{Name: "rmcast.nacks_per_op", Unit: "count", Value: c("rmcast.nacks_sent") / ops, MapsTo: "datagrams_per_op", Share: nan,
			Note: "Snapshot rmcast.nacks_sent"},
		{Name: "rmcast.useful_repair_ratio", Unit: "fraction", Value: useful, MapsTo: "datagrams_per_op", Share: nan,
			Note: fmt.Sprintf("(retransmits_recv-duplicates)/retransmits_recv over %.0f retransmits; 0 when none", retrans)},
		{Name: "rmcast.history_len_peak", Unit: "msg", Value: float64(o.histPeak), MapsTo: "rss_peak_mb", Share: nan,
			Note: fmt.Sprintf("largest rmcast.history_len, sampled every %v", sampleEvery)},
		{Name: "rmcast.stability_lag_p50", Unit: "msg", Value: o.stabilityLag, MapsTo: "rss_peak_mb", Share: nan,
			Note: "median over nodes of rmcast.stability_lag p50"},
		{Name: "member.views_during_run", Unit: "count", Value: float64(o.viewsRun), MapsTo: "error_rate", Share: nan,
			Note: "views installed after setup, summed over nodes"},
		{Name: "failure.heartbeat_dgrams_per_s", Unit: "dgram/s", Value: ratio(kindSum(o, wire.KindHeartbeat), o.phase.Seconds()),
			MapsTo: "datagrams_per_op", Share: dgramShare(kindSum(o, wire.KindHeartbeat))},
		{Name: "bulk.sym_dgrams_per_object", Unit: "dgram", Value: ratio(sym, objects), MapsTo: "datagrams_per_op", Share: dgramShare(sym),
			Note: "0 on message workloads"},
		{Name: "bulk.req_dgrams_per_object", Unit: "dgram", Value: ratio(req, objects), MapsTo: "datagrams_per_op", Share: dgramShare(req),
			Note: "0 on message workloads"},
	}
	if w.object > 0 {
		bulk := find(e2e, "bulk_p50_ms")
		pub := quantile(send, 0.5) / 1e3
		first := median(o.firstProgMs)
		layers = append(layers,
			metric{Name: "scalamedia.publish_ms", Unit: "ms", Value: pub, MapsTo: "bulk_p50_ms", Share: ratio(pub, bulk),
				Note: fmt.Sprintf("Node.Publish call incl. the RS encode on the loop, n=%d", len(send))},
			metric{Name: "bulk.first_progress_ms", Unit: "ms", Value: first, MapsTo: "bulk_p50_ms", Share: ratio(first, bulk),
				Note: fmt.Sprintf("Publish to the first ObjectProgress, n=%d", len(o.firstProgMs))},
		)
	}
	if w.rate > 0 {
		p99 := quantile(late, 0.99)
		layers = append(layers, metric{Name: "bench.gen_late_ms_p99", Unit: "ms", Value: p99, MapsTo: "latency_p99_ms",
			Share: ratio(p99, latP99), Note: "open-loop generator lateness against its schedule, " + tail(len(late), 0.99)})
	}
	return layers
}

// pick returns the metrics named in names, in that order.
func pick(ms []metric, names []string) []metric {
	var out []metric
	for _, name := range names {
		for _, m := range ms {
			if m.Name == name {
				out = append(out, m)
			}
		}
	}
	return out
}

func printMetrics(w io.Writer, tag string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-10s %-32s %14.6g %-8s %s\n", tag, m.Name, m.Value, m.Unit, m.Note)
	}
}

// printOverhead prints traced minus untraced for every end-to-end metric.
func printOverhead(w io.Writer, plain, traced []metric) {
	for _, m := range plain {
		t := find(traced, m.Name)
		rel := ""
		if m.Value != 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(t-m.Value)/m.Value)
		}
		fmt.Fprintf(w, "%-10s %-32s %14.6g %-8s %s\n", "overhead", m.Name, t-m.Value, m.Unit, rel)
	}
}

func printLayers(w io.Writer, layers []metric) {
	for _, m := range layers {
		share := "share n/a"
		if !math.IsNaN(m.Share) {
			share = fmt.Sprintf("share %.4f", m.Share)
		}
		fmt.Fprintf(w, "%-10s %-32s %14.6g %-8s -> %-16s %-12s %s\n", "layer", m.Name, m.Value, m.Unit, m.MapsTo, share, m.Note)
	}
}
