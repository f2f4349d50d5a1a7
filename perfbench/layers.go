package main

import (
	"fmt"
	"os"
	"time"
)

// perLayer reports the traced run's per-layer metrics, and the tracing
// overhead as the traced run against the untraced one (plain).
func perLayer(rep *report, r *runner, res, plain *phaseResult) {
	tr := r.tr
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	spans := func(k spanKind) []time.Duration { return tr.spans[k].durations() }
	all := append(append([]record(nil), res.open...), res.peak...)
	ops := float64(len(all))

	// The dispatcher: how late it released ops, and how long they then
	// waited for a worker.
	var lag, wait []time.Duration
	for _, rc := range res.open {
		lag = append(lag, rc.released.Sub(rc.due))
		wait = append(wait, rc.started.Sub(rc.released))
	}
	set("bench.sched_lag_p50_ms", quantileMs(lag, 0.50), "ms")
	set("bench.sched_lag_p99_ms", quantileMs(lag, 0.99), "ms")
	set("bench.queue_wait_p50_ms", quantileMs(wait, 0.50), "ms")
	set("bench.queue_wait_p99_ms", quantileMs(wait, 0.99), "ms")
	set("bench.error_rate", float64(rep.Failed)/float64(rep.Attempted), "ratio")
	// Latency tails of the traced run, timed like the end-to-end medians.
	for kind, name := range opNames {
		set("bench."+name+"_p90_ms", windowedQuantile(res, opKind(kind), 0.90), "ms")
	}

	// core: encode and decode.
	core := readCounts(tr.reg(regCore))
	set("core.encode_us", 1000*quantileMs(spans(spEncode), 0.5), "us")
	set("core.decode_l0_us", 1000*quantileMs(spans(spDecodeL0), 0.5), "us")
	set("core.decode_full_us", 1000*quantileMs(spans(spDecodeFull), 0.5), "us")
	var puts, gets []record
	added := 0
	for _, rc := range all {
		if rc.err != nil {
			continue
		}
		if rc.kind == opPut {
			puts = append(puts, rc)
		} else {
			gets = append(gets, rc)
			added += rc.added
		}
	}
	set("core.blocks_added_per_get", ratio(float64(added), float64(len(gets))), "count")
	set("core.innovative_ratio", ratio(core["core_decode_innovative_total"], core["core_decode_blocks_total"]), "ratio")

	// store: the placement front end, its shards and clients, and the
	// servers.
	fg := readCounts(tr.reg(regClient))
	collected := fg["store_replicated_collect_blocks_total"]
	dups := fg["store_replicated_collect_dup_blocks_total"]
	set("store.put_us", 1000*quantileMs(spans(spStorePut), 0.5), "us")
	set("store.collect_us", 1000*quantileMs(spans(spCollect), 0.5), "us")
	set("store.blocks_per_get", ratio(collected+dups, fg["store_replicated_collects_total"]), "count")
	set("store.collect_dup_ratio", ratio(dups, collected+dups), "ratio")
	set("store.requests_per_op", ratio(res.fgCounts.sumPrefix("store_server_requests_total"), ops), "count")
	set("store.wire_bytes_per_op", ratio(fg["store_client_frame_bytes_in_total"]+fg["store_client_frame_bytes_out_total"], ops), "B")
	set("store.dials_per_op", ratio(fg["store_client_dials_total"], ops), "count")

	// diskstore: engine calls timed server side, counts over the
	// foreground phases.
	d := res.fgCounts
	set("diskstore.put_us", 1000*quantileMs(spans(spDiskPut), 0.5), "us")
	set("diskstore.get_us", 1000*quantileMs(spans(spDiskGet), 0.5), "us")
	set("diskstore.batch_blocks_mean", ratio(d["diskstore_batch_blocks#sum"], d["diskstore_batch_blocks#count"]), "count")
	hits, misses := d["diskstore_cache_hits_total"], d["diskstore_cache_misses_total"]
	set("diskstore.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	userPut := float64(len(puts) * r.w.sources() * r.w.payload)
	set("diskstore.write_bytes_per_user_byte", ratio(d["diskstore_write_bytes_total"], userPut), "ratio")
	set("diskstore.working_set_per_cache", float64(res.live)/float64(ringNodes+1)/float64(r.w.cacheBytes), "ratio")

	// mover and repair, from the operator's registry.
	bg := readCounts(tr.reg(regBG))
	set("mover.round_s", meanMs(spans(spMoverRound))/1000, "s")
	set("mover.bytes_per_object", ratio(bg["mover_bytes_collected_total"]+bg["mover_bytes_placed_total"], bg["mover_objects_migrated_total"]), "B")
	set("mover.regenerated", bg["mover_blocks_regenerated_total"], "count")
	set("mover.copied", bg["mover_blocks_copied_total"], "count")
	set("mover.new_owner_fill", res.newOwnerFill, "ratio")
	set("repair.round_s", meanMs(spans(spRepairRound))/1000, "s")
	set("repair.bytes_per_regenerated_block", ratio(bg["repair_bytes_collected_total"]+bg["repair_bytes_placed_total"], bg["repair_blocks_regenerated_total"]), "B")

	// Self time along the blocking path, mean per op: each layer's span
	// time minus the spans of the layer below it. Engine time has no
	// request ID to tie it to an op, so it is the foreground total shared
	// out over the ops; a collect reads its replicas in parallel, so one
	// replica's engine time is on its blocking path.
	var pBench, pEnc, pStore, gBench, gStore, gDec float64
	for _, rc := range puts {
		svc := rc.ended.Sub(rc.started)
		pBench += ms(svc - rc.encode - rc.store)
		pEnc += ms(rc.encode)
		pStore += ms(rc.store)
	}
	for _, rc := range gets {
		svc := rc.ended.Sub(rc.started)
		gBench += ms(svc - rc.store - rc.decode)
		gStore += ms(rc.store)
		gDec += ms(rc.decode)
	}
	np, ng := float64(len(puts)), float64(len(gets))
	diskPut := ratio(sumMs(spans(spDiskPut)), np)
	diskGet := ratio(sumMs(spans(spDiskGet)), ng*replication)
	set("self.put.bench_us", 1000*ratio(pBench, np), "us")
	set("self.put.encode_us", 1000*ratio(pEnc, np), "us")
	set("self.put.store_us", 1000*(ratio(pStore, np)-diskPut), "us")
	set("self.put.diskstore_us", 1000*diskPut, "us")
	set("self.get.bench_us", 1000*ratio(gBench, ng), "us")
	set("self.get.store_us", 1000*(ratio(gStore, ng)-diskGet), "us")
	set("self.get.diskstore_us", 1000*diskGet, "us")
	set("self.get.decode_us", 1000*ratio(gDec, ng), "us")

	// Tracing overhead: the traced run against the untraced one.
	set("trace.overhead_peak_pct", 100*(ratio(peakOps(plain), peakOps(res))-1), "%")
	for _, k := range []opKind{opPut, opGetL0} {
		t, p := quantileMs(latencies(res.open, k), 0.5), quantileMs(latencies(plain.open, k), 0.5)
		set("trace.overhead_"+opNames[k]+"_p50_pct", 100*(ratio(t, p)-1), "%")
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// crossCheck compares the benchmark's own op counts with the layers'
// counters in the traced run and returns the number of mismatches.
func crossCheck(r *runner, res *phaseResult) int {
	fg := readCounts(r.tr.reg(regClient))
	bad := 0
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: counter cross-check: "+format+"\n", args...)
		}
	}
	puts, collects := float64(r.placedPuts.Load()), float64(r.collects.Load())
	check(fg["store_placed_puts_total"] == puts, "store_placed_puts_total %v, benchmark made %v puts", fg["store_placed_puts_total"], puts)
	check(fg["store_placed_collects_total"] == collects, "store_placed_collects_total %v, benchmark made %v collects", fg["store_placed_collects_total"], collects)
	okPuts, failed := 0, 0
	for _, recs := range [][]record{res.open, res.peak} {
		for _, rc := range recs {
			switch {
			case rc.err != nil:
				failed++
			case rc.kind == opPut:
				okPuts++
			}
		}
	}
	if failed == 0 {
		want := float64(okPuts * r.w.blocksPerObject())
		check(puts == want, "%v completed puts of %d blocks, but %v block puts", okPuts, r.w.blocksPerObject(), puts)
	}
	replicaOK := fg.sumPrefix("store_replica_put_ok_total") + fg.sumPrefix("store_replica_get_ok_total") + fg.sumPrefix("store_replica_stat_ok_total")
	check(fg["store_client_ops_ok_total"] == replicaOK, "store_client_ops_ok_total %v, replicas report %v successes", fg["store_client_ops_ok_total"], replicaOK)
	requests := res.fgCounts.sumPrefix("store_server_requests_total")
	check(requests >= puts+collects, "servers saw %v requests for %v logical ops", requests, puts+collects)
	return bad
}
