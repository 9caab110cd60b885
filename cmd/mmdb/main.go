// Command mmdb exercises the real memory-mapped single-level store: it
// creates partitioned relations in mmap-backed segment files, runs the
// three parallel pointer-based joins over the mapped data with actual
// goroutines, verifies they agree, and reports wall-clock times.
//
// Usage:
//
//	mmdb create -dir DIR [-objects N] [-d D] [-objsize B] [-seed N] [-index]
//	mmdb index  -dir DIR [-d D] [-workers N]
//	mmdb join   -dir DIR [-alg all|auto|nested-loops|sort-merge|grace|hybrid-hash|index-nl|index-merge] [-k K] [-mrproc B] [-workers N]
//	mmdb bench  -dir DIR [-runs N] [-workers N]
//	mmdb split  -src DIR -out DIR [-shards N] [-d D]
//	mmdb serve  {-dir DIR | -shard-map FILE} [-addr :PORT] [-membudget B] [-maxqueue N] [-workers N]
//
// index bulk-loads persistent per-partition B-tree indexes into an
// existing database's segments (create -index does it at creation
// time); an indexed store unlocks the index-nl and index-merge join
// paths, and the planner considers them for -alg auto. split rewrites
// one database into N shard databases (R partitioned round-robin, S
// replicated) plus a shard-map file; serve -shard-map mounts them
// behind the scatter-gather router instead of a single mapped store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/model"
	"mmjoin/internal/mstore"
	"mmjoin/internal/planner"
	"mmjoin/internal/relation"
	"mmjoin/internal/service"
	"mmjoin/internal/shard"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "create":
		cmdCreate(os.Args[2:])
	case "index":
		cmdIndex(os.Args[2:])
	case "join":
		cmdJoin(os.Args[2:])
	case "bench":
		cmdBench(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "split":
		cmdSplit(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mmdb create|index|join|bench|verify|split|serve [flags]")
	os.Exit(2)
}

func cmdSplit(args []string) {
	fs := flag.NewFlagSet("split", flag.ExitOnError)
	src := fs.String("src", "", "source database directory")
	out := fs.String("out", "", "output directory (shard-K subdirs and shards.json are created here)")
	shards := fs.Int("shards", 3, "shard count")
	d := fs.Int("d", 4, "partitions the source was created with")
	fs.Parse(args)
	if *src == "" || *out == "" {
		fatal(fmt.Errorf("split: -src and -out required"))
	}
	if *shards < 1 {
		fatal(fmt.Errorf("split: -shards must be >= 1"))
	}
	start := time.Now()
	dirs := make([]string, *shards)
	for k := range dirs {
		dirs[k] = filepath.Join(*out, fmt.Sprintf("shard-%d", k))
	}
	m, err := shard.Split(*src, *d, dirs)
	if err != nil {
		fatal(err)
	}
	mapPath := filepath.Join(*out, "shards.json")
	if err := shard.WriteMap(mapPath, m); err != nil {
		fatal(err)
	}
	fmt.Printf("split %s into %d shards under %s (map: %s) in %v\n",
		*src, *shards, *out, mapPath, time.Since(start).Round(time.Millisecond))
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory (single-store mode)")
	shardMap := fs.String("shard-map", "", "shard-map file (sharded scatter-gather mode; overrides -dir)")
	d := fs.Int("d", 4, "partitions the database was created with (single-store mode)")
	addr := fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	budget := fs.Int64("membudget", 0, "total join-memory budget, bytes (0: default)")
	grant := fs.Int64("grant", 0, "default per-request memory grant, bytes (0: default)")
	maxQueue := fs.Int("maxqueue", 0, "admission queue bound (0: default, <0: no queue)")
	timeout := fs.Duration("timeout", 0, "per-request timeout (0: default)")
	calOps := fs.Int("calops", 0, "planner calibration effort (0: default)")
	workers := fs.Int("workers", 0, "morsel-pool size: shared pool (single) or per shard (sharded) (0: GOMAXPROCS)")
	drainWait := fs.Duration("drainwait", 30*time.Second, "graceful drain limit on SIGTERM")
	fs.Parse(args)
	if *dir == "" && *shardMap == "" {
		fatal(fmt.Errorf("serve: -dir or -shard-map required"))
	}

	cfg := service.Config{
		MemBudget: *budget, DefaultGrant: *grant, MaxQueue: *maxQueue,
		RequestTimeout: *timeout, CalibrationOps: *calOps, Workers: *workers,
	}
	serving := *dir
	if *shardMap != "" {
		router, err := openRouter(*shardMap, *workers, *calOps)
		if err != nil {
			fatal(err)
		}
		cfg.Store = router
		serving = *shardMap
	} else {
		cfg.Dir = *dir
		cfg.D = *d
	}
	s, err := service.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	fmt.Printf("mmdb: serving %s on http://%s (POST /v1/join, GET /v1/lookup /v1/stats /v1/healthz /v1/shards)\n",
		serving, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Println("mmdb: draining…")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "mmdb:", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mmdb:", err)
	}
	fmt.Println("mmdb: drained, bye")
}

// openRouter mounts a shard map behind the scatter-gather router, wiring
// per-shard auto planning through the calibrated analytical model: each
// shard's PlanFunc call costs that shard's own measured workload, so a
// skewed shard may pick a different algorithm than its peers.
func openRouter(mapPath string, workers, calOps int) (*shard.Router, error) {
	m, err := shard.LoadMap(mapPath)
	if err != nil {
		return nil, err
	}
	mcfg := machine.DefaultConfig()
	mcfg.D = m.Shards[0].D
	if calOps <= 0 {
		calOps = 400
	}
	calib := model.Calibrate(mcfg, calOps, 1)
	pl := planner.New(calib, nil)
	plIdx := planner.New(calib, planner.IndexAlgorithms)
	// The router is captured so each plan call can consult the live
	// Indexed stat: index plans are only proposed when every shard can
	// execute them (Indexed is the AND over live shards).
	var r *shard.Router
	planFn := func(id string, w *relation.Workload, req mstore.JoinRequest) (join.Algorithm, error) {
		p := pl
		if r != nil && r.Stats().Indexed {
			p = plIdx
		}
		choice, err := p.ChooseFor(join.Request{
			Config: mcfg,
			Params: join.Params{Workload: w, MRproc: req.MRproc, K: req.K},
		})
		if err != nil {
			return 0, err
		}
		return choice.Best.Algorithm, nil
	}
	r, err = shard.Open(m, shard.Config{
		MapPath:         mapPath,
		WorkersPerShard: workers,
		PlanFunc:        planFn,
	})
	return r, err
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	d := fs.Int("d", 4, "partitions")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("verify: -dir required"))
	}
	db, err := mstore.OpenDB(*dir, *d)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if err := db.Verify(); err != nil {
		fatal(err)
	}
	objs := 0
	for _, rel := range db.R {
		objs += rel.Count()
	}
	fmt.Printf("ok: %d R objects across %d partitions, all pointers valid\n", objs, db.D)
}

func cmdCreate(args []string) {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	objects := fs.Int("objects", 100000, "objects per relation")
	d := fs.Int("d", 4, "partitions")
	objSize := fs.Int("objsize", 128, "object size in bytes")
	seed := fs.Int64("seed", 1, "workload seed")
	index := fs.Bool("index", false, "bulk-load persistent B-tree indexes after creation")
	workers := fs.Int("workers", 0, "bulk-load parallelism (0: GOMAXPROCS; with -index)")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("create: -dir required"))
	}
	start := time.Now()
	db, err := mstore.CreateDB(*dir, *d, *objects, *objects, *objSize, *seed)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	fmt.Printf("created %d R + %d S objects (%d B each) over %d segment pairs in %v\n",
		*objects, *objects, *objSize, *d, time.Since(start).Round(time.Millisecond))
	if *index {
		buildIndexes(db, *workers)
	}
}

// buildIndexes bulk-loads the persistent indexes on a pool of the given
// size and prints the build time — the amortization denominator the
// bench index panel reports.
func buildIndexes(db *mstore.DB, workers int) {
	p := exec.NewPool(workers)
	defer p.Close()
	start := time.Now()
	if err := db.BuildIndexes(context.Background(), p); err != nil {
		fatal(err)
	}
	fmt.Printf("indexed %d R + %d S objects over %d B-tree pairs in %v\n",
		db.CountR(), db.CountS(), db.D, time.Since(start).Round(time.Millisecond))
}

func cmdIndex(args []string) {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	d := fs.Int("d", 4, "partitions the database was created with")
	workers := fs.Int("workers", 0, "bulk-load parallelism (0: GOMAXPROCS)")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("index: -dir required"))
	}
	db, err := mstore.OpenDB(*dir, *d)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if db.HasIndexes() {
		fmt.Println("already indexed")
		return
	}
	buildIndexes(db, *workers)
	if err := db.VerifyIndexes(); err != nil {
		fatal(err)
	}
}

// realAlgorithms are the pointer-based plans the mapped store executes;
// indexAlgorithms are the additional plans an indexed store unlocks.
var realAlgorithms = []join.Algorithm{
	join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash,
}

var indexAlgorithms = []join.Algorithm{join.IndexNL, join.IndexMerge}

func cmdJoin(args []string) {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	alg := fs.String("alg", "all", "algorithm: all, auto (planner-chosen), nested-loops, sort-merge, grace, hybrid-hash, index-nl, index-merge")
	d := fs.Int("d", 4, "partitions the database was created with")
	k := fs.Int("k", 0, "Grace bucket count (0: derive from -mrproc)")
	mrproc := fs.Int64("mrproc", 1<<20, "private memory grant per partition goroutine, bytes")
	workers := fs.Int("workers", 0, "morsel-pool size, the CPU parallelism (0: GOMAXPROCS)")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("join: -dir required"))
	}
	db, err := mstore.OpenDB(*dir, *d)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	want := db.ExpectedStats()

	run := func(a join.Algorithm) {
		start := time.Now()
		st, err := db.Run(mstore.JoinRequest{
			Algorithm: a, MRproc: *mrproc, K: *k, Workers: *workers,
		})
		if err != nil {
			fatal(err)
		}
		ok := "OK"
		if st != want {
			ok = "MISMATCH"
		}
		fmt.Printf("%-12s  %8d pairs  %10v  verification %s\n",
			a, st.Pairs, time.Since(start).Round(time.Microsecond), ok)
	}
	if *alg == "auto" {
		// Cost this exact database (its measured pointer distribution)
		// through the calibrated analytical model and run the winner; an
		// indexed store widens the candidate set with the index paths.
		w, err := db.Workload()
		if err != nil {
			fatal(err)
		}
		mcfg := machine.DefaultConfig()
		mcfg.D = *d
		var algs []join.Algorithm
		if db.HasIndexes() {
			algs = planner.IndexAlgorithms
		}
		choice, err := planner.New(model.Calibrate(mcfg, 400, 1), algs).ChooseFor(join.Request{
			Config: mcfg,
			Params: join.Params{Workload: w, MRproc: *mrproc, K: *k},
		})
		if err != nil {
			fatal(err)
		}
		for _, c := range choice.Candidates {
			fmt.Printf("  plan: %-16s predicted %v\n", c.Algorithm, time.Duration(c.Predicted))
		}
		run(choice.Best.Algorithm)
		return
	}
	all := realAlgorithms
	if db.HasIndexes() {
		all = append(append([]join.Algorithm(nil), all...), indexAlgorithms...)
	}
	for _, a := range all {
		if *alg == "all" || *alg == a.String() {
			run(a)
		}
	}
}

func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	d := fs.Int("d", 4, "partitions")
	runs := fs.Int("runs", 3, "repetitions per algorithm")
	k := fs.Int("k", 0, "Grace bucket count (0: derive from -mrproc)")
	mrproc := fs.Int64("mrproc", 1<<20, "private memory grant per partition goroutine, bytes")
	workers := fs.Int("workers", 0, "morsel-pool size, the CPU parallelism (0: GOMAXPROCS)")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("bench: -dir required"))
	}
	db, err := mstore.OpenDB(*dir, *d)
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	algs := realAlgorithms
	if db.HasIndexes() {
		algs = append(append([]join.Algorithm(nil), algs...), indexAlgorithms...)
	}
	for _, a := range algs {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < *runs; r++ {
			start := time.Now()
			if _, err := db.Run(mstore.JoinRequest{Algorithm: a, MRproc: *mrproc, K: *k, Workers: *workers}); err != nil {
				fatal(err)
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		fmt.Printf("%-12s  best of %d: %v\n", a, *runs, best.Round(time.Microsecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mmdb:", err)
	os.Exit(1)
}
