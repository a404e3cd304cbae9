package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"predata/internal/dataspaces"
	"predata/internal/trace"
)

func testDomain() dataspaces.Domain {
	return dataspaces.Domain{Dims: []uint64{32, 32}, BlockSize: []uint64{8, 8}}
}

func rowData(n int, base float64) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = base + float64(i)
	}
	return d
}

// TestDecodeIngestRejectsTruncation feeds decodeIngest every prefix of a
// valid journal payload, and a name length that wraps uint32 arithmetic:
// each must be an error, never a panic.
func TestDecodeIngestRejectsTruncation(t *testing.T) {
	valid := encodeIngest("gtc/field", 3, []uint64{0, 8}, []uint64{1, 11}, rowData(8, 1))
	if _, version, _, _, data, err := decodeIngest(valid); err != nil || version != 3 || len(data) != 8 {
		t.Fatalf("valid payload: version %d, %d cells, %v", version, len(data), err)
	}
	inputs := map[string][]byte{"name length 0xFFFFFFF8": append([]byte{0xFF, 0xFF, 0xFF, 0xF8}, make([]byte, 16)...)}
	for n := 0; n < len(valid); n++ {
		inputs[fmt.Sprintf("first %d bytes", n)] = valid[:n]
	}
	for name, buf := range inputs {
		if _, _, _, _, _, err := decodeIngest(buf); err == nil {
			t.Errorf("%s: truncated payload decoded", name)
		}
	}
}

func TestDaemonLifecycle(t *testing.T) {
	rec := trace.New(trace.Config{Shards: 4, ShardCapacity: 4096})
	d, err := Open(Config{Servers: 2, Domain: testDomain(), CacheEntries: 64, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	gtc, err := d.Join("gtc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Join("gtc", 1); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if _, err := d.Join("bad/name", 1); err == nil {
		t.Fatal("tenant name with separator accepted")
	}
	xray, err := d.Join("xray", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Epoch(); got != 2 {
		t.Fatalf("epoch %d after two joins, want 2", got)
	}

	ctx := context.Background()
	lb, ub := []uint64{0, 0}, []uint64{4, 32}
	if err := gtc.Ingest(ctx, "field", 0, lb, ub, rowData(4*32, 1)); err != nil {
		t.Fatal(err)
	}
	if err := xray.Ingest(ctx, "field", 0, lb, ub, rowData(4*32, 1000)); err != nil {
		t.Fatal(err)
	}

	// Same object name, two namespaces: reads must not cross.
	g, err := gtc.Query("field", 0, lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	x, err := xray.Query("field", 0, lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 1 || x[0] != 1000 {
		t.Fatalf("namespace crossed: gtc[0]=%v xray[0]=%v", g[0], x[0])
	}

	// Second identical query hits the cache and is bit-identical.
	g2, err := gtc.Query("field", 0, lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g {
		if g[i] != g2[i] {
			t.Fatalf("cache hit differs at %d: %v vs %v", i, g[i], g2[i])
		}
	}
	if st := d.CacheStats(); st.Hits == 0 {
		t.Fatalf("no cache hit recorded: %+v", st)
	}

	// Reduce twice: second from cache, same scalar.
	r1, err := xray.Reduce("field", 0, lb, ub, dataspaces.ReduceSum)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := xray.Reduce("field", 0, lb, ub, dataspaces.ReduceSum)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("cached reduce %v differs from %v", r2, r1)
	}

	// A new Put of the version invalidates: the next query sees it.
	if err := gtc.Ingest(ctx, "field", 0, []uint64{0, 0}, []uint64{1, 32}, rowData(32, -5)); err != nil {
		t.Fatal(err)
	}
	g3, err := gtc.Query("field", 0, lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	if g3[0] != -5 {
		t.Fatalf("stale cached value %v after overwrite, want -5", g3[0])
	}

	st, err := gtc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingests != 2 || st.Queries != 3 || st.ResidentBytes == 0 {
		t.Fatalf("tenant stats: %+v", st)
	}

	if err := gtc.EvictVersion("field", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := gtc.Query("field", 0, lb, ub); err == nil {
		t.Fatal("query answered for an evicted version (stale cache?)")
	}
	st, _ = gtc.Stats()
	if st.ResidentBytes != 0 {
		t.Fatalf("resident bytes %d after evicting everything", st.ResidentBytes)
	}

	if err := gtc.Leave(); err != nil {
		t.Fatal(err)
	}
	if err := xray.Leave(); err != nil {
		t.Fatal(err)
	}
	if got := d.Epoch(); got != 4 {
		t.Fatalf("epoch %d after two leaves, want 4", got)
	}
	if n := len(d.Tenants()); n != 0 {
		t.Fatalf("%d tenants after everyone left", n)
	}

	// The recording of this clean run passes the serve Verify rules.
	if _, err := trace.Verify(rec.Snapshot()); err != nil {
		t.Fatalf("clean run failed verify: %v", err)
	}
}

func TestDaemonWALRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Servers: 2, Domain: testDomain(), WALDir: dir}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Join("gtc", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lb, ub := []uint64{0, 0}, []uint64{2, 32}
	if err := s.Ingest(ctx, "keep", 3, lb, ub, rowData(64, 7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(ctx, "gone", 3, lb, ub, rowData(64, 9)); err != nil {
		t.Fatal(err)
	}
	if err := s.EvictVersion("gone", 3); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the unevicted version is resident again, the evicted one
	// stays gone (its commit record dedupes it).
	d2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	s2, err := d2.Join("gtc", 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Query("keep", 3, lb, ub)
	if err != nil {
		t.Fatalf("recovered version not resident: %v", err)
	}
	if got[0] != 7 {
		t.Fatalf("recovered cell %v, want 7", got[0])
	}
	if _, err := s2.Query("gone", 3, lb, ub); err == nil {
		t.Fatal("evicted version resurrected by recovery")
	}
}

// TestDaemonLeaveFailsQueuedIngest: a tenant leaves while one of its
// ingests waits for admission. The pot holds one 8×8 version, so with
// v1 resident the ingest of v2 queues. Leave must fail that ingest
// without journaling or putting it, evict v1, and deregister the
// tenant; no cell remains, a restarted daemon recovers none, and the
// tenant can rejoin.
func TestDaemonLeaveFailsQueuedIngest(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", durable), func(t *testing.T) {
			cfg := Config{Servers: 2, Domain: testDomain(), CapacityBytes: 512}
			if durable {
				cfg.WALDir = t.TempDir()
			}
			d, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			s, err := d.Join("gtc", 1)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			lb, ub := []uint64{0, 0}, []uint64{8, 8}
			if err := s.Ingest(ctx, "field", 1, lb, ub, rowData(64, 1)); err != nil {
				t.Fatal(err)
			}
			queued := make(chan error, 1)
			go func() { queued <- s.Ingest(ctx, "field", 2, lb, ub, rowData(64, 2)) }()
			deadline := time.Now().Add(5 * time.Second)
			for {
				st, err := s.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.Admission.Waits >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("ingest of v2 never queued for admission")
				}
				time.Sleep(time.Millisecond)
			}

			if err := s.Leave(); err != nil {
				t.Fatalf("Leave with a queued ingest: %v", err)
			}
			if err := <-queued; err == nil {
				t.Fatal("queued ingest succeeded after its tenant left")
			}
			if n := d.Space().MemoryCells(); n != 0 {
				t.Fatalf("%d cells of the departed tenant remain", n)
			}
			if _, err := d.Join("gtc", 1); err != nil {
				t.Fatalf("rejoin after leave: %v", err)
			}
			if !durable {
				return
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if n := d2.Space().MemoryCells(); n != 0 {
				t.Fatalf("restart recovered %d cells of the departed tenant", n)
			}
		})
	}
}
