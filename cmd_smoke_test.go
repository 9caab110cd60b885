package mmjoin

// End-to-end smoke tests of the command-line tools: each binary is built
// once and driven with small configurations, checking flag parsing and
// headline output. Skipped under -short.

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// buildCmd compiles ./cmd/<name> into a temp dir and returns the binary
// path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("cmd smoke test")
	}
	bin := filepath.Join(t.TempDir(), name)
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCmdCalibrateSmoke(t *testing.T) {
	bin := buildCmd(t, "calibrate")
	out := runCmd(t, bin, "-fig", "1b")
	for _, want := range []string{"newMap", "openMap", "deleteMap", "12800"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	out = runCmd(t, bin, "-fig", "1a", "-ops", "300")
	if !strings.Contains(out, "dttr") || !strings.Contains(out, "dttw") {
		t.Errorf("fig 1a output:\n%s", out)
	}
	// Parallel band measurement prints the same table shape.
	out = runCmd(t, bin, "-fig", "1a", "-ops", "300", "-parallel", "2")
	if !strings.Contains(out, "dttr") || !strings.Contains(out, "dttw") {
		t.Errorf("fig 1a -parallel output:\n%s", out)
	}
	// Unknown figure fails.
	if err := exec.Command(bin, "-fig", "9z").Run(); err == nil {
		t.Error("unknown figure accepted")
	}
	// -parallel below 1 is rejected.
	if err := exec.Command(bin, "-fig", "1b", "-parallel", "0").Run(); err == nil {
		t.Error("-parallel 0 accepted")
	}
}

func TestCmdSweepSmoke(t *testing.T) {
	bin := buildCmd(t, "sweep")
	out := runCmd(t, bin, "-fig", "5b", "-objects", "8000")
	if !strings.Contains(out, "sort-merge") || !strings.Contains(out, "NPASS") {
		t.Errorf("fig 5b output:\n%s", out)
	}
	out = runCmd(t, bin, "-fig", "contention", "-objects", "8000")
	if !strings.Contains(out, "staggered") || !strings.Contains(out, "naive") {
		t.Errorf("contention output:\n%s", out)
	}
	out = runCmd(t, bin, "-fig", "dist", "-objects", "8000")
	if !strings.Contains(out, "zipf") {
		t.Errorf("dist output:\n%s", out)
	}
	// An explicit worker count works and prints the same table shape.
	out = runCmd(t, bin, "-fig", "5b", "-objects", "8000", "-parallel", "2")
	if !strings.Contains(out, "sort-merge") || !strings.Contains(out, "NPASS") {
		t.Errorf("fig 5b -parallel output:\n%s", out)
	}
	// -parallel below 1 is rejected.
	if err := exec.Command(bin, "-fig", "5b", "-parallel", "0").Run(); err == nil {
		t.Error("-parallel 0 accepted")
	}
	if err := exec.Command(bin, "-fig", "5b", "-parallel", "-3").Run(); err == nil {
		t.Error("negative -parallel accepted")
	}
}

func TestCmdJoinsimSmoke(t *testing.T) {
	bin := buildCmd(t, "joinsim")
	out := runCmd(t, bin, "-alg", "grace", "-objects", "8000", "-mem-frac", "0.05", "-trace")
	for _, want := range []string{"experiment:", "model breakdown", "per-process timeline", "K="} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	out = runCmd(t, bin, "-alg", "sort-merge", "-objects", "8000", "-policy", "fifo", "-dist", "local")
	if !strings.Contains(out, "IRUN=") {
		t.Errorf("sort-merge output:\n%s", out)
	}
	if err := exec.Command(bin, "-alg", "nope").Run(); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestCmdBenchSmoke(t *testing.T) {
	bin := buildCmd(t, "bench")
	out := filepath.Join(t.TempDir(), "bench.json")
	// -mstore-out keeps the mstore panel off the tracked BENCH_mstore.json.
	got := runCmd(t, bin, "-objects", "4000", "-parallel", "2", "-out", out,
		"-mstore-out", filepath.Join(t.TempDir(), "mstore.json"))
	for _, want := range []string{"speedup", "events/sec", "baseline written"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mmjoin-bench/v1", "sequential_ns", "dispatch_ping_pong", "allocs_per_op"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("missing %q in %s", want, out)
		}
	}
	// -parallel below 1 is rejected.
	if err := exec.Command(bin, "-parallel", "0").Run(); err == nil {
		t.Error("-parallel 0 accepted")
	}
}

func TestCmdMmdbSmoke(t *testing.T) {
	bin := buildCmd(t, "mmdb")
	dir := filepath.Join(t.TempDir(), "db")
	out := runCmd(t, bin, "create", "-dir", dir, "-objects", "8000")
	if !strings.Contains(out, "created") {
		t.Errorf("create output:\n%s", out)
	}
	out = runCmd(t, bin, "join", "-dir", dir)
	if strings.Contains(out, "MISMATCH") || !strings.Contains(out, "hybrid-hash") {
		t.Errorf("join output:\n%s", out)
	}
	out = runCmd(t, bin, "bench", "-dir", dir, "-runs", "1")
	if !strings.Contains(out, "best of 1") {
		t.Errorf("bench output:\n%s", out)
	}
	// Planner-chosen algorithm prints the candidate table and verifies.
	out = runCmd(t, bin, "join", "-dir", dir, "-alg", "auto")
	if !strings.Contains(out, "plan:") || strings.Contains(out, "MISMATCH") {
		t.Errorf("auto join output:\n%s", out)
	}
	// Missing -dir fails.
	if err := exec.Command(bin, "join").Run(); err == nil {
		t.Error("missing -dir accepted")
	}
}

// TestCmdMmdbServeSmoke drives the query service end to end: start on an
// ephemeral port, one planner-chosen join round-trip over HTTP, then a
// SIGTERM graceful drain.
func TestCmdMmdbServeSmoke(t *testing.T) {
	bin := buildCmd(t, "mmdb")
	dir := filepath.Join(t.TempDir(), "db")
	runCmd(t, bin, "create", "-dir", dir, "-objects", "5000")

	cmd := exec.Command(bin, "serve", "-dir", dir, "-addr", "127.0.0.1:0", "-calops", "60")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first line announces the bound address.
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("reading serve banner: %v", err)
	}
	i := strings.Index(line, "http://")
	j := strings.Index(line[i:], " ")
	if i < 0 || j < 0 {
		t.Fatalf("no address in banner %q", line)
	}
	base := line[i : i+j]

	resp, err := http.Post(base+"/v1/join", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"pairs": 5000`) {
		t.Fatalf("join round-trip: status %d body %s", resp.StatusCode, body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(rd)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve exit: %v\n%s", err, rest)
	}
	if !strings.Contains(string(rest), "drained") {
		t.Fatalf("no graceful drain in output:\n%s", rest)
	}
}
