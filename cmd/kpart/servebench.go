package main

// kpart serve-bench load-tests the serving layer against a loopback
// listener and writes BENCH_serve.json, the service companion to
// BENCH_kpart.json: req/s, client-observed latency quantiles, and the
// cache hit rate under a fixed request mix.
//
// The mix is deliberately cache-friendly and fixed across runs so the
// numbers are comparable from change to change: every client
// round-robins the same -unique trial specs (two spec families, small
// and medium), so the first pass through the set pays for simulation and
// every later request exercises the content-addressed replay path —
// which is the hot path a result service actually serves.
//
//	kpart serve-bench [-out BENCH_serve.json] [-clients 8]
//	                  [-requests 2000] [-unique 64] [-workers 0]

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
)

// specMix returns the fixed request bodies the clients cycle through:
// alternating small (n=16, k=3) and medium (n=48, k=4) trials, seeds
// 0..unique-1. Fixed mix, fixed seeds — the benchmark measures the
// server, not the workload generator.
func specMix(unique int) []string {
	bodies := make([]string, unique)
	for i := range bodies {
		if i%2 == 0 {
			bodies[i] = fmt.Sprintf(`{"n":16,"k":3,"seed":%d}`, i)
		} else {
			bodies[i] = fmt.Sprintf(`{"n":48,"k":4,"seed":%d}`, i)
		}
	}
	return bodies
}

// serveBenchDoc is the BENCH_serve.json document.
type serveBenchDoc struct {
	CreatedAt string `json:"created_at"`
	Go        string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	Clients     int `json:"clients"`
	Requests    int `json:"requests"`
	UniqueSpecs int `json:"unique_specs"`
	Workers     int `json:"workers"`
	QueueDepth  int `json:"queue_depth"`

	DurationNS     int64   `json:"duration_ns"`
	RequestsPerSec float64 `json:"requests_per_sec"`

	LatencyNSP50  float64 `json:"latency_ns_p50"`
	LatencyNSP90  float64 `json:"latency_ns_p90"`
	LatencyNSP99  float64 `json:"latency_ns_p99"`
	LatencyNSMean float64 `json:"latency_ns_mean"`

	CacheMiss    int     `json:"cache_miss"`
	CacheLRU     int     `json:"cache_lru"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Rejected429  int     `json:"rejected_429"`

	// TrialsRun is the server-side count of simulations actually paid
	// for; with a warm mix it should equal unique_specs.
	TrialsRun uint64 `json:"trials_run"`
}

func serveBenchCmd(_ context.Context, args []string) error {
	fs := newFlags()
	var (
		out      = fs.String("out", "BENCH_serve.json", "output JSON path")
		clients  = fs.Int("clients", 8, "concurrent clients")
		requests = fs.Int("requests", 2000, "total requests across all clients")
		unique   = fs.Int("unique", 64, "distinct trial specs in the mix")
		workers  = fs.Int("workers", 0, "server trial workers (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", serve.DefaultQueueDepth, "server admission queue depth")
	)
	min := map[string]int{"clients": 1, "requests": 1, "unique": 1, "workers": 0, "queue": 0}
	if err := parseFlags(fs, args, min); err != nil {
		return err
	}
	if *requests < *clients {
		// Requests split evenly across clients; fewer than one each
		// would measure nothing.
		return usagef("-requests %d is below -clients %d", *requests, *clients)
	}

	reg := obs.New("kpart_serve_bench")
	srv := serve.New(serve.Config{Workers: *workers, QueueDepth: *queue, Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer func() {
		srv.Shutdown()
		_ = httpSrv.Close()
	}()
	url := "http://" + ln.Addr().String() + "/v1/trials"

	bodies := specMix(*unique)
	perClient := *requests / *clients
	total := perClient * *clients

	type clientStats struct {
		latencies []float64 // ns
		miss, lru int
		rejected  int
		err       error
	}
	allStats := make([]clientStats, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &allStats[c]
			client := &http.Client{}
			for i := 0; i < perClient; i++ {
				// Interleave clients across the mix so the cold pass is
				// shared, not repeated per client.
				body := bodies[(c+i**clients)%len(bodies)]
				for {
					t0 := time.Now()
					resp, err := client.Post(url, "application/json", strings.NewReader(body))
					if err != nil {
						st.err = err
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
					if resp.StatusCode == http.StatusTooManyRequests {
						// Honor the server's backpressure like a real
						// client: count it, back off, retry.
						st.rejected++
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						st.err = fmt.Errorf("POST /v1/trials: status %d", resp.StatusCode)
						return
					}
					st.latencies = append(st.latencies, float64(time.Since(t0).Nanoseconds()))
					switch resp.Header.Get("X-Kpart-Cache") {
					case "miss":
						st.miss++
					default:
						st.lru++
					}
					break
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var latencies []float64
	miss, lru, rejected := 0, 0, 0
	for i := range allStats {
		if err := allStats[i].err; err != nil {
			return err
		}
		latencies = append(latencies, allStats[i].latencies...)
		miss += allStats[i].miss
		lru += allStats[i].lru
		rejected += allStats[i].rejected
	}
	sort.Float64s(latencies)

	var trialsRun uint64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "serve/trials_run" {
			trialsRun = m.Value
		}
	}

	doc := serveBenchDoc{
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),

		Clients:     *clients,
		Requests:    total,
		UniqueSpecs: *unique,
		Workers:     srv.Pool().Workers(),
		QueueDepth:  srv.Pool().QueueCap(),

		DurationNS:     elapsed.Nanoseconds(),
		RequestsPerSec: float64(total) / elapsed.Seconds(),

		LatencyNSP50:  stats.Quantile(latencies, 0.50),
		LatencyNSP90:  stats.Quantile(latencies, 0.90),
		LatencyNSP99:  stats.Quantile(latencies, 0.99),
		LatencyNSMean: stats.Mean(latencies),

		CacheMiss:    miss,
		CacheLRU:     lru,
		CacheHitRate: float64(lru) / float64(total),
		Rejected429:  rejected,

		TrialsRun: trialsRun,
	}

	if err := writeJSON(*out, doc); err != nil {
		return err
	}
	fmt.Printf("kpart-serve-bench: %d requests in %v (%.0f req/s, %.1f%% cache hits, %d trials computed) -> %s\n",
		total, elapsed.Round(time.Millisecond), doc.RequestsPerSec, 100*doc.CacheHitRate, trialsRun, *out)
	return nil
}
