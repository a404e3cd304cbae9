package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predata/internal/apps/xray"
	"predata/internal/dataspaces"
	"predata/internal/trace"
)

// The multi-tenant conformance suite: every scenario runs under each
// chaos seed, asserting exact per-tenant frame conservation, zero
// cross-tenant reads (via trace.Verify's tenant-isolation rule), and
// cache-hit results bit-identical to uncached space reads. Run with
// -race -shuffle=on (make serve-soak does).

var conformanceSeeds = []int64{1, 7, 42}

const (
	confRows = 64
	confCols = 64
)

func confDomain() dataspaces.Domain {
	return dataspaces.Domain{Dims: []uint64{confRows, confCols}, BlockSize: []uint64{8, 8}}
}

func newConformanceDaemon(t *testing.T, capacity int64) (*Daemon, *trace.Recorder) {
	t.Helper()
	rec := trace.New(trace.Config{Shards: 8, ShardCapacity: 1 << 15})
	d, err := Open(Config{
		Servers:       2,
		Domain:        confDomain(),
		CapacityBytes: capacity,
		CacheEntries:  512,
		Tracer:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, rec
}

// streamPlan is one tenant's dump stream: sizes[v] rows ingested as
// version v of object "field", every cell stamped base+v so bytes are
// attributable to (tenant, version).
type streamPlan struct {
	tenant string
	weight int
	base   float64
	sizes  []int
}

func steadyPlan(tenant string, weight int, base float64, versions, rows int) streamPlan {
	sizes := make([]int, versions)
	for i := range sizes {
		sizes[i] = rows
	}
	return streamPlan{tenant: tenant, weight: weight, base: base, sizes: sizes}
}

// burstyPlan derives per-version sizes from the xray detector's seeded
// burst schedule, scaled into the domain's row budget.
func burstyPlan(t *testing.T, tenant string, weight int, base float64, versions int, seed int64) streamPlan {
	t.Helper()
	det, err := xray.New(xray.Config{Rank: 0, NumRanks: 1, BaseFrames: 2, Steps: versions, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, versions)
	for v := range sizes {
		rows := det.FrameCount(int64(v))
		if rows < 1 {
			rows = 1
		}
		if rows > confRows {
			rows = confRows
		}
		sizes[v] = rows
	}
	return streamPlan{tenant: tenant, weight: weight, base: base, sizes: sizes}
}

func (p streamPlan) cells() int64 {
	var n int64
	for _, rows := range p.sizes {
		n += int64(rows) * confCols
	}
	return n
}

// runStream ingests the plan's versions in order, bumping lastV as each
// lands so concurrent queriers only touch resident versions.
func runStream(ctx context.Context, s *Session, p streamPlan, lastV *atomic.Int64) error {
	for v, rows := range p.sizes {
		data := make([]float64, rows*confCols)
		for i := range data {
			data[i] = p.base + float64(v)
		}
		if err := s.Ingest(ctx, "field", v, []uint64{0, 0}, []uint64{uint64(rows), confCols}, data); err != nil {
			return fmt.Errorf("tenant %s version %d: %w", p.tenant, v, err)
		}
		lastV.Store(int64(v))
	}
	return nil
}

// runQueriers hammers the tenant's resident versions with range and
// reduction queries until stop closes, checking every answer against
// the plan's stamp.
func runQueriers(s *Session, p streamPlan, lastV *atomic.Int64, stop <-chan struct{}, workers int) <-chan error {
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				last := lastV.Load()
				if last < 0 {
					continue
				}
				v := int((last + int64(w) + int64(i)) % (last + 1))
				rows := uint64(p.sizes[v])
				want := p.base + float64(v)
				if i%3 == 0 {
					got, err := s.Reduce("field", v, []uint64{0, 0}, []uint64{rows, confCols}, dataspaces.ReduceMax)
					if err != nil {
						errc <- fmt.Errorf("tenant %s reduce v%d: %w", p.tenant, v, err)
						return
					}
					if got != want {
						errc <- fmt.Errorf("tenant %s reduce v%d = %v, want %v — foreign or stale bytes", p.tenant, v, got, want)
						return
					}
					continue
				}
				cells, err := s.Query("field", v, []uint64{0, 0}, []uint64{rows, confCols})
				if err != nil {
					errc <- fmt.Errorf("tenant %s query v%d: %w", p.tenant, v, err)
					return
				}
				for j, c := range cells {
					if c != want {
						errc <- fmt.Errorf("tenant %s query v%d cell %d = %v, want %v — cross-tenant or stale read",
							p.tenant, v, j, c, want)
						return
					}
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(errc) }()
	return errc
}

// assertConservation checks exact per-tenant frame conservation: the
// session's counters and the space's resident versions match the plan.
func assertConservation(t *testing.T, d *Daemon, s *Session, p streamPlan) {
	t.Helper()
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingests != int64(len(p.sizes)) {
		t.Errorf("tenant %s: %d ingests, want %d", p.tenant, st.Ingests, len(p.sizes))
	}
	if st.IngestedCells != p.cells() {
		t.Errorf("tenant %s: %d cells ingested, want %d — frames lost or invented", p.tenant, st.IngestedCells, p.cells())
	}
	if got := len(d.Space().Versions(qualify(p.tenant, "field"))); got != len(p.sizes) {
		t.Errorf("tenant %s: %d resident versions, want %d", p.tenant, got, len(p.sizes))
	}
}

// assertCacheBitIdentical compares a twice-issued (so cache-served)
// query and reduce against the uncached space read, bit for bit.
func assertCacheBitIdentical(t *testing.T, d *Daemon, s *Session, p streamPlan) {
	t.Helper()
	v := len(p.sizes) - 1
	rows := uint64(p.sizes[v])
	lb, ub := []uint64{0, 0}, []uint64{rows, confCols}
	if _, err := s.Query("field", v, lb, ub); err != nil {
		t.Fatal(err)
	}
	cached, err := s.Query("field", v, lb, ub) // second read: cache-served
	if err != nil {
		t.Fatal(err)
	}
	direct, err := d.Space().Get(qualify(p.tenant, "field"), v, lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != len(direct) {
		t.Fatalf("tenant %s: cached %d cells, direct %d", p.tenant, len(cached), len(direct))
	}
	for i := range cached {
		if math.Float64bits(cached[i]) != math.Float64bits(direct[i]) {
			t.Fatalf("tenant %s cell %d: cached %x differs from direct %x",
				p.tenant, i, math.Float64bits(cached[i]), math.Float64bits(direct[i]))
		}
	}
	if _, err := s.Reduce("field", v, lb, ub, dataspaces.ReduceSum); err != nil {
		t.Fatal(err)
	}
	cachedSum, err := s.Reduce("field", v, lb, ub, dataspaces.ReduceSum)
	if err != nil {
		t.Fatal(err)
	}
	directSum, err := d.Space().Reduce(qualify(p.tenant, "field"), v, lb, ub, dataspaces.ReduceSum)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(cachedSum) != math.Float64bits(directSum) {
		t.Fatalf("tenant %s: cached reduce %v differs from direct %v", p.tenant, cachedSum, directSum)
	}
}

// cacheRounds is how many times assertCacheSweep reads its region set.
const cacheRounds = 4

// assertCacheSweep reads one region set of the tenant's freshest version
// — its rows in slices of four — cacheRounds times over, with nothing
// else running, and checks that the result cache answered every round
// past the first: hits / (hits + misses) >= (rounds-1) / rounds.
func assertCacheSweep(t *testing.T, d *Daemon, s *Session, p streamPlan) {
	t.Helper()
	v := len(p.sizes) - 1
	rows := uint64(p.sizes[v])
	before := d.CacheStats()
	for round := 0; round < cacheRounds; round++ {
		for lo := uint64(0); lo < rows; lo += 4 {
			if _, err := s.Query("field", v, []uint64{lo, 0}, []uint64{min(lo+4, rows), confCols}); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := d.CacheStats()
	hits, lookups := after.Hits-before.Hits, after.Hits+after.Misses-before.Hits-before.Misses
	if lookups == 0 || hits*cacheRounds < lookups*(cacheRounds-1) {
		t.Errorf("tenant %s: %d of %d lookups hit over %d rounds, want at least %d/%d",
			p.tenant, hits, lookups, cacheRounds, cacheRounds-1, cacheRounds)
	}
}

// assertVerified checks the recording and that the tenant-isolation and
// cache-coherence rules each had something to check.
func assertVerified(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	rep, err := trace.Verify(rec.Snapshot())
	if err != nil {
		t.Fatalf("trace verify: %v", err)
	}
	if rep.Checks[trace.RuleTenantIsolation] == 0 {
		t.Fatal("verify checked no tenant isolation — serve events missing from the recording")
	}
	if rep.Checks[trace.RuleCacheCoherence] == 0 {
		t.Fatal("verify checked no cache hit for coherence — cache events missing from the recording")
	}
}

// runTwoTenantScenario drives two concurrent streams with queriers and
// runs the full assertion battery.
func runTwoTenantScenario(t *testing.T, d *Daemon, rec *trace.Recorder, plans []streamPlan) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sessions := make([]*Session, len(plans))
	for i, p := range plans {
		s, err := d.Join(p.tenant, p.weight)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	stop := make(chan struct{})
	var queriers []<-chan error
	lastVs := make([]*atomic.Int64, len(plans))
	for i := range plans {
		lastVs[i] = &atomic.Int64{}
		lastVs[i].Store(-1)
		queriers = append(queriers, runQueriers(sessions[i], plans[i], lastVs[i], stop, 3))
	}
	var wg sync.WaitGroup
	ingestErr := make(chan error, len(plans))
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := runStream(ctx, sessions[i], plans[i], lastVs[i]); err != nil {
				ingestErr <- err
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	close(ingestErr)
	for err := range ingestErr {
		t.Fatal(err)
	}
	for _, errc := range queriers {
		for err := range errc {
			t.Fatal(err)
		}
	}
	for i, p := range plans {
		assertConservation(t, d, sessions[i], p)
		assertCacheBitIdentical(t, d, sessions[i], p)
		assertCacheSweep(t, d, sessions[i], p)
	}
	assertVerified(t, rec)
}

func TestConformanceSteadyTwoTenant(t *testing.T) {
	for _, seed := range conformanceSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d, rec := newConformanceDaemon(t, 0)
			runTwoTenantScenario(t, d, rec, []streamPlan{
				steadyPlan("gtc", 1, 1000, 10+int(seed%5), 16),
				steadyPlan("pixie3d", 1, 2000, 10+int(seed%3), 16),
			})
		})
	}
}

func TestConformanceBurstyXray(t *testing.T) {
	for _, seed := range conformanceSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d, rec := newConformanceDaemon(t, 0)
			runTwoTenantScenario(t, d, rec, []streamPlan{
				burstyPlan(t, "xray", 2, 5000, 12, seed),
				steadyPlan("gtc", 1, 1000, 12, 8),
			})
		})
	}
}

func TestConformanceJoinLeaveMidStream(t *testing.T) {
	for _, seed := range conformanceSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d, rec := newConformanceDaemon(t, 0)
			ctx := context.Background()

			resident := steadyPlan("gtc", 1, 1000, 8, 16)
			gtc, err := d.Join(resident.tenant, resident.weight)
			if err != nil {
				t.Fatal(err)
			}
			lastV := &atomic.Int64{}
			lastV.Store(-1)
			stop := make(chan struct{})
			errc := runQueriers(gtc, resident, lastV, stop, 3)

			done := make(chan error, 1)
			go func() { done <- runStream(ctx, gtc, resident, lastV) }()

			// A second tenant joins mid-stream, works, and leaves; a third
			// joins after it. Every join/leave rescales the shard pool
			// under the resident tenant's live traffic.
			transient := steadyPlan(fmt.Sprintf("pixie3d-%d", seed), 2, 3000, 4, 8)
			px, err := d.Join(transient.tenant, transient.weight)
			if err != nil {
				t.Fatal(err)
			}
			txLast := &atomic.Int64{}
			txLast.Store(-1)
			if err := runStream(ctx, px, transient, txLast); err != nil {
				t.Fatal(err)
			}
			assertConservation(t, d, px, transient)
			if err := px.Leave(); err != nil {
				t.Fatal(err)
			}
			if got := d.Space().Versions(qualify(transient.tenant, "field")); len(got) != 0 {
				t.Fatalf("left tenant still has %d resident versions", len(got))
			}
			late, err := d.Join("xray-late", 1)
			if err != nil {
				t.Fatal(err)
			}
			lateLast := &atomic.Int64{}
			lateLast.Store(-1)
			latePlan := steadyPlan("xray-late", 1, 7000, 3, 8)
			if err := runStream(ctx, late, latePlan, lateLast); err != nil {
				t.Fatal(err)
			}

			if err := <-done; err != nil {
				t.Fatal(err)
			}
			close(stop)
			for err := range errc {
				t.Fatal(err)
			}
			assertConservation(t, d, gtc, resident)
			assertConservation(t, d, late, latePlan)
			assertCacheBitIdentical(t, d, gtc, resident)
			assertCacheSweep(t, d, gtc, resident)
			if got, want := d.Epoch(), int64(4); got != want {
				t.Fatalf("membership epoch %d after 3 joins + 1 leave, want %d", got, want)
			}
			assertVerified(t, rec)
		})
	}
}

func TestConformanceQueryStormUnderOverload(t *testing.T) {
	for _, seed := range conformanceSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// A pot sized to 5 versions against a steady-state working
			// set of 4 resident + 2 in-flight forces ingests to queue
			// behind evictions while a query storm runs — admission
			// overload with live read traffic. (Smaller pots deadlock:
			// each tenant keeps 2 versions resident and needs credit for
			// a third before it evicts.)
			const potBytes = 5 * 16 * confCols * 8
			d, rec := newConformanceDaemon(t, potBytes)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			plans := []streamPlan{
				steadyPlan("gtc", 1, 1000, 8+int(seed%4), 16),
				steadyPlan("xray", 2, 5000, 8, 16),
			}
			sessions := make([]*Session, len(plans))
			for i, p := range plans {
				s, err := d.Join(p.tenant, p.weight)
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
			}
			// The storm: 8 workers per tenant hammering the freshest
			// version. Queries can race an eviction of their version —
			// those fail cleanly and are tolerated; every query that
			// SUCCEEDS must carry its tenant's exact stamp.
			stop := make(chan struct{})
			var stormWG sync.WaitGroup
			hits := make([]*atomic.Int64, len(plans))
			stormErr := make(chan error, 16*len(plans))
			lastVs := make([]*atomic.Int64, len(plans))
			for i := range plans {
				lastVs[i] = &atomic.Int64{}
				lastVs[i].Store(-1)
				hits[i] = &atomic.Int64{}
				for w := 0; w < 8; w++ {
					stormWG.Add(1)
					go func(i int) {
						defer stormWG.Done()
						p, s := plans[i], sessions[i]
						for {
							select {
							case <-stop:
								return
							default:
							}
							v := lastVs[i].Load()
							if v < 0 {
								runtime.Gosched()
								continue
							}
							rows := uint64(p.sizes[v])
							cells, err := s.Query("field", int(v), []uint64{0, 0}, []uint64{rows, confCols})
							if err != nil {
								continue // raced an eviction of v
							}
							want := p.base + float64(v)
							for j, c := range cells {
								if c != want {
									stormErr <- fmt.Errorf("tenant %s storm query v%d cell %d = %v, want %v",
										p.tenant, v, j, c, want)
									return
								}
							}
							hits[i].Add(1)
						}
					}(i)
				}
			}
			var wg sync.WaitGroup
			ingestErr := make(chan error, len(plans))
			for i := range plans {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					p, s := plans[i], sessions[i]
					for v, rows := range p.sizes {
						data := make([]float64, rows*confCols)
						for j := range data {
							data[j] = p.base + float64(v)
						}
						if err := s.Ingest(ctx, "field", v, []uint64{0, 0}, []uint64{uint64(rows), confCols}, data); err != nil {
							ingestErr <- fmt.Errorf("tenant %s v%d: %w", p.tenant, v, err)
							return
						}
						lastVs[i].Store(int64(v))
						// Slide the window: keep at most 2 resident
						// versions so the pot never deadlocks.
						if v >= 2 {
							if err := s.EvictVersion("field", v-2); err != nil {
								ingestErr <- err
								return
							}
						}
					}
				}(i)
			}
			wg.Wait()
			// The final window of each stream stays resident, so every
			// storm worker can land queries once ingest is done — drain
			// until each tenant has at least one before stopping.
			deadline := time.Now().Add(30 * time.Second)
			for _, h := range hits {
				for h.Load() == 0 && time.Now().Before(deadline) {
					runtime.Gosched()
				}
			}
			close(stop)
			stormWG.Wait()
			close(ingestErr)
			close(stormErr)
			for err := range ingestErr {
				t.Fatal(err)
			}
			for err := range stormErr {
				t.Fatal(err)
			}
			for i, p := range plans {
				if hits[i].Load() == 0 {
					t.Errorf("tenant %s: storm landed zero successful queries", p.tenant)
				}
				st, err := sessions[i].Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.Ingests != int64(len(p.sizes)) {
					t.Errorf("tenant %s: %d ingests under overload, want %d — frames lost", p.tenant, st.Ingests, len(p.sizes))
				}
				if st.IngestedCells != p.cells() {
					t.Errorf("tenant %s: %d cells, want %d", p.tenant, st.IngestedCells, p.cells())
				}
				assertCacheSweep(t, d, sessions[i], p)
			}
			assertVerified(t, rec)
		})
	}
}
