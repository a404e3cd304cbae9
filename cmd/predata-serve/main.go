// Command predata-serve runs the PreDatA staging stack as a long-lived
// multi-tenant service at laptop scale: a daemon admits N simulated
// simulation clients that stream versioned dumps into per-tenant
// namespaces while concurrent querying applications sweep the freshest
// version with range and reduction queries. Per-tenant conservation,
// admission fairness, cache traffic, and the verified trace are printed
// when the streams drain.
//
// Usage:
//
//	predata-serve -tenants 4 -versions 8 -rows 32 -cols 256
//	predata-serve -tenants 2 -cache 0                       (result cache off)
//	predata-serve -tenants 4 -wal-dir /tmp/predata-serve    (durable ingest journal)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"predata/internal/dataspaces"
	"predata/internal/queryapp"
	"predata/internal/serve"
	"predata/internal/trace"
)

func main() { os.Exit(cli(os.Args[1:])) }

// cli parses args and serves under the optional CPU profile, returning the
// exit status: 0, 1 for a failed run, 2 for a bad invocation. The profile
// is stopped and flushed on every path.
func cli(args []string) (code int) {
	flags := flag.NewFlagSet("predata-serve", flag.ContinueOnError)
	var (
		tenants    = flags.Int("tenants", 4, "concurrent simulation clients (tenants)")
		versions   = flags.Int("versions", 6, "dump versions each tenant streams")
		rows       = flags.Int("rows", 32, "rows per ingested version")
		cols       = flags.Int("cols", 256, "columns per ingested version")
		window     = flags.Int("window", 2, "resident versions per tenant (older versions are evicted)")
		cache      = flags.Int("cache", 1024, "query result cache entries (0 disables)")
		cores      = flags.Int("query-cores", 2, "querying cores per tenant")
		queries    = flags.Int("queries", 4, "queries per core per round")
		rounds     = flags.Int("rounds", 3, "query sweep rounds (rounds past the first repeat regions)")
		walDir     = flags.String("wal-dir", "", "journal every ingest under this directory for crash recovery")
		cpuProfile = flags.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stop, err := trace.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predata-serve:", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "predata-serve:", err)
			code = max(code, 1)
		}
	}()
	if err := run(os.Stdout, *tenants, *versions, *rows, *cols, *window, *cache, *cores, *queries, *rounds, *walDir); err != nil {
		fmt.Fprintln(os.Stderr, "predata-serve:", err)
		return 1
	}
	return 0
}

func run(w io.Writer, tenants, versions, rows, cols, window, cache, cores, queries, rounds int, walDir string) error {
	if tenants < 1 || versions < 1 {
		return fmt.Errorf("-tenants %d / -versions %d must be >= 1", tenants, versions)
	}
	if window < 1 {
		return fmt.Errorf("-window %d must be >= 1", window)
	}
	if rows < 16 || cols < 16 {
		return fmt.Errorf("-rows %d / -cols %d must be >= 16", rows, cols)
	}
	if cores*queries > rows {
		return fmt.Errorf("%d query cores x %d queries exceed %d rows", cores, queries, rows)
	}
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return fmt.Errorf("wal dir: %w", err)
		}
	}
	versionBytes := int64(rows) * int64(cols) * 8
	rec := trace.New(trace.Config{Shards: 8, ShardCapacity: 1 << 15})
	d, err := serve.Open(serve.Config{
		Servers:       2,
		Domain:        dataspaces.Domain{Dims: []uint64{uint64(rows), uint64(cols)}, BlockSize: []uint64{16, 16}},
		CapacityBytes: int64(tenants*window+2) * versionBytes,
		CacheEntries:  cache,
		WALDir:        walDir,
		Tracer:        rec,
	})
	if err != nil {
		return err
	}
	defer d.Close()

	sessions := make([]*serve.Session, tenants)
	for i := range sessions {
		s, err := d.Join(fmt.Sprintf("sim%02d", i), 1+i%3)
		if err != nil {
			return err
		}
		sessions[i] = s
	}

	// Every tenant streams its dump versions concurrently under the
	// fair-share admission pot, evicting past its resident window; the
	// query sweeps run against each freshest version once its stream
	// drains.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, tenants)
	queryResults := make([]queryapp.Result, tenants)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *serve.Session) {
			defer wg.Done()
			data := make([]float64, rows*cols)
			for v := 0; v < versions; v++ {
				for j := range data {
					data[j] = float64(i)*1e6 + float64(v)
				}
				if err := s.Ingest(ctx, "field", v, []uint64{0, 0}, []uint64{uint64(rows), uint64(cols)}, data); err != nil {
					errc <- fmt.Errorf("tenant %s version %d: %w", s.Tenant(), v, err)
					return
				}
				if v >= window {
					if err := s.EvictVersion("field", v-window); err != nil {
						errc <- err
						return
					}
				}
			}
			res, err := queryapp.Run(queryapp.Config{
				Query:   s.Query,
				Object:  "field",
				Version: versions - 1,
				Domain:  []uint64{uint64(rows), uint64(cols)},
				Cores:   cores,
				Queries: queries,
				Rounds:  rounds,
			})
			if err != nil {
				errc <- fmt.Errorf("tenant %s queries: %w", s.Tenant(), err)
				return
			}
			queryResults[i] = res
		}(i, s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return err
	}
	wall := time.Since(start)

	totalMB := float64(tenants) * float64(versions) * float64(versionBytes) / (1 << 20)
	fmt.Fprintf(w, "serve: %d tenants x %d versions (%.2f MB), wall %v, membership epoch %d\n",
		tenants, versions, totalMB, wall.Round(time.Millisecond), d.Epoch())
	fmt.Fprintf(w, "%-8s %7s %9s %9s %8s %9s %9s %6s\n",
		"tenant", "weight", "ingests", "cells", "queries", "qP50us", "qP99us", "waits")
	for i, s := range sessions {
		st, err := s.Stats()
		if err != nil {
			return err
		}
		wantCells := int64(versions) * int64(rows) * int64(cols)
		if st.Ingests != int64(versions) || st.IngestedCells != wantCells {
			return fmt.Errorf("tenant %s: %d ingests / %d cells, want %d / %d — frames lost",
				s.Tenant(), st.Ingests, st.IngestedCells, versions, wantCells)
		}
		qr := queryResults[i]
		fmt.Fprintf(w, "%-8s %7d %9d %9d %8d %9.2f %9.2f %6d\n",
			s.Tenant(), st.Admission.Weight, st.Ingests, st.IngestedCells,
			qr.Queries, qr.P50Seconds*1e6, qr.P99Seconds*1e6, st.Admission.Waits)
	}
	cs := d.CacheStats()
	fmt.Fprintf(w, "cache: %d hits / %d misses / %d fills / %d invalidations (%d entries resident)\n",
		cs.Hits, cs.Misses, cs.Fills, cs.Invalidations, cs.Entries)

	rep, err := trace.Verify(rec.Snapshot())
	if err != nil {
		return fmt.Errorf("trace verify: %w", err)
	}
	fmt.Fprintf(w, "trace: verified %s — zero cross-tenant reads\n", rep)
	if walDir != "" {
		fmt.Fprintf(w, "wal: ingest journal under %s (replayed on next start)\n", walDir)
	}
	return nil
}
