package bench

import (
	"predata/internal/model"
	"predata/internal/sim"
)

// desCrossCheck regenerates Fig. 8's comparison with the discrete-event
// simulator and prints it next to the analytic model's numbers. The two
// share calibration constants but not formulas: the DES's contention and
// interference emerge from jobs on processor-sharing resources, so
// agreement on the shape is a genuine cross-validation.
func desCrossCheck(rp *Report) error {
	m := model.Jaguar()
	rp.header("Cross-check — discrete-event simulation vs analytic model (GTC, Fig. 8)")
	rp.printf("%8s | %12s %12s | %14s %14s | %16s\n",
		"cores", "DES improv.", "model improv.", "DES write/dump", "model write/dump", "DES interference")
	for _, cores := range model.GTCScales {
		p := sim.DefaultGTCParams(cores)
		ic, st, improvement, err := sim.CompareConfigurations(p)
		if err != nil {
			return err
		}
		a := m.GTCRun(cores)
		rp.printf("%8d | %11.2f%% %11.2f%% | %13.2fs %13.2fs | %13.2fs/run\n",
			cores, improvement, a.ImprovementPct,
			ic.IOBlockingSeconds/float64(ic.Dumps),
			a.InCompute.IOBlocking/float64(a.Dumps),
			st.InterferenceSeconds)
	}
	rp.printf("\nboth models agree that staging wins at every scale and that the synchronous write dominates the visible cost; the analytic model additionally encodes the superlinear torus contention behind the paper's 8,192 -> 16,384 savings decline, which the processor-sharing abstraction smooths out\n")
	return nil
}
