package bench

import (
	"fmt"

	"predata/internal/fabric"
	"predata/internal/predata"
)

// The adversary experiment's shared shape: enough writers and staging
// ranks for a meaningful quorum (3 staging ranks — a fenced minority of
// one leaves a strict majority serving) over a multi-dump window that
// straddles the partition.
const (
	advCompute = 8
	advStaging = 3
	advPerRank = 2000
	advDumps   = 4
)

// advPartition severs staging index 2 (endpoint 10) from the other two
// staging ranks over dumps 1-2: it loses quorum and fences itself while
// endpoints 8 and 9 keep serving, then heals at dump 3.
const advPartition = "partition:10|8,9@1-2"

// advParams is the shape the adversary and restart experiments share, as
// their documents record it.
var advParams = row{
	{"writers", advCompute, "", ""},
	{"staging", advStaging, "", ""},
	{"dumps", advDumps, "", ""},
}

// adversary runs the adversarial-wire experiment: the same workload
// fault-free, under wire corruption (healed by CRC-verified re-pulls),
// under persistent source corruption (shed loudly after the attempt
// budget), across a staging partition (fence, serve degraded, heal),
// and over a noisy paced fabric (stragglers hedged). It demonstrates
// the robustness contract: corruption and partitions never silently
// lose data — every leg either matches the baseline bit-for-bit or
// declares its degradation.
func adversary(rp *Report) error {
	rp.seeded("Adversary — wire corruption, partitions and stragglers")

	shape := gtcShape(advCompute, advStaging, advDumps)
	// The straggler leg paces the fabric against its bandwidth model and
	// adds heavy log-normal transfer noise so slow pulls blow the model
	// deadline and hedge. It triggers at the model estimate itself: the
	// noise puts roughly half of all pulls past it, so hedges fire
	// reliably instead of only on the distribution tail.
	noisy := shape
	noisy.Fabric = fabric.DefaultConfig(advCompute + advStaging)
	noisy.Fabric.PaceScale = 50
	noisy.Fabric.VarSigma = 2.0
	noisy.Retry = predata.RetryPolicy{HedgeFactor: 1}

	outs, err := runLegs(rp.seed, []leg{
		{name: "fault-free", cfg: shape, perRank: advPerRank},
		{name: "wire corrupt p=0.15", cfg: shape, perRank: advPerRank, plan: "corrupt:*:0.15:pull"},
		{name: "source corrupt w0", cfg: shape, perRank: advPerRank, plan: "corrupt:0:1:send"},
		{name: "partition dumps 1-2", cfg: shape, perRank: advPerRank, plan: advPartition},
		{name: "straggler hedging", cfg: noisy, perRank: advPerRank},
	})
	if err != nil {
		return err
	}

	// Goodput, then the corruption trajectory (injector fires, CRC
	// rejections healed by re-pull, chunks abandoned because the source
	// copy is bad), the partition trajectory (link refusals, per-rank
	// dumps sat out without quorum, fenced ranks rejoining, rerouted
	// writes, wall time reconfiguring membership), the straggler
	// trajectory (pulls that armed a hedge, races the hedge won), and the
	// ledger's close: explicit degradation versus silently missing values.
	var rows []row
	for _, o := range outs {
		f := o.res.Fault
		rows = append(rows, row{
			{"name", o.name, "run", "%s"},
			{"wall_ms", o.wall.Milliseconds(), "wall", "%dms"},
			{"goodput_mval_s", o.goodput(), "goodput", "%.2fM"},
			{"corruptions", f.Corruptions, "corrupt", "%d"},
			{"corrupt_pulls", f.CorruptPulls, "crcFail", "%d"},
			{"corrupt_drops", f.CorruptDrops, "drops", "%d"},
			{"unreachables", f.Unreachables, "", ""},
			{"fenced_dumps", f.FencedDumps, "fenced", "%d"},
			{"heals", f.Heals, "heals", "%d"},
			{"rerouted_dumps", f.ReroutedDumps, "", ""},
			{"recovery_ms", f.RecoveryWall.Milliseconds(), "", ""},
			{"hedged_pulls", f.HedgedPulls, "hedged", "%d"},
			{"hedge_wins", f.HedgeWins, "", ""},
			{"degraded_dumps", f.DegradedDumps, "degr", "%d"},
			{"data_loss", o.loss(), "loss", "%d"},
		})
	}
	rp.section("adversary", advParams, rows)

	// The invariants the experiment exists to demonstrate.
	base, wire, source, part, straggler := outs[0], outs[1], outs[2], outs[3], outs[4]
	if base.loss() != 0 || base.res.Fault.DegradedDumps != 0 {
		return fmt.Errorf("bench: fault-free leg not clean: %v", rows[0])
	}
	if f := wire.res.Fault; f.Corruptions == 0 || f.CorruptPulls == 0 {
		return fmt.Errorf("bench: wire leg injected no corruption: %v", rows[1])
	}
	if f := wire.res.Fault; wire.loss() != 0 || f.CorruptDrops != 0 || f.DegradedDumps != 0 {
		return fmt.Errorf("bench: wire corruption must heal losslessly via re-pull: %v", rows[1])
	}
	// Persistent source corruption sheds writer 0's chunk every dump —
	// loudly: the loss is exactly one writer's contribution, and every
	// affected dump is marked Degraded.
	if drops := source.res.Fault.CorruptDrops; drops != int64(advDumps) {
		return fmt.Errorf("bench: source leg dropped %d chunks, want %d", drops, advDumps)
	}
	if wantLoss := int64(advPerRank) * 2 * int64(advDumps); source.loss() != wantLoss {
		return fmt.Errorf("bench: source leg lost %d values, want exactly %d (writer 0's share)",
			source.loss(), wantLoss)
	}
	if source.res.Fault.DegradedDumps == 0 {
		return fmt.Errorf("bench: source leg shed chunks without declaring degradation: %v", rows[2])
	}
	if f := part.res.Fault; f.Heals != 1 || f.FencedDumps == 0 {
		return fmt.Errorf("bench: partition leg did not fence and heal: %v", rows[3])
	}
	if part.loss() != 0 {
		return fmt.Errorf("bench: partition leg lost %d values across the fence window", part.loss())
	}
	if straggler.res.Fault.HedgedPulls == 0 {
		return fmt.Errorf("bench: straggler leg never hedged: %v", rows[4])
	}
	if straggler.loss() != 0 || straggler.res.Fault.DegradedDumps != 0 {
		return fmt.Errorf("bench: straggler leg not lossless: %v", rows[4])
	}
	rp.printf("\ncorruption heals or sheds loudly, partitions fence and heal lossless, stragglers hedge — no silent loss anywhere\n")
	return nil
}
