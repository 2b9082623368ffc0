package serving

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"polygraph/internal/core"
	"polygraph/internal/fleet"
	"polygraph/internal/obs"
	"polygraph/internal/slo"
)

var (
	trainOnce sync.Once
	trained   *core.Model
)

func trainedModel(t testing.TB) *core.Model {
	t.Helper()
	trainOnce.Do(func() {
		logger := obs.NewLogger(nil, false)
		m, _, _, err := ObtainModel(context.Background(), true, "", 10000, false, logger)
		if err != nil {
			panic(err)
		}
		trained = m
	})
	return trained
}

func TestObtainModelTrainsInProcess(t *testing.T) {
	logger := obs.NewLogger(os.Stderr, false)
	m, rep, baseline, err := ObtainModel(context.Background(), true, "", 10000, false, logger)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 28 {
		t.Fatalf("model dim %d", m.Dim())
	}
	if m.Accuracy < 0.97 {
		t.Fatalf("accuracy %.4f", m.Accuracy)
	}
	if rep == nil || len(rep.Stages) == 0 {
		t.Fatal("in-process training returned no stage timings")
	}
	if len(baseline) == 0 || len(baseline[0]) != m.Dim() {
		t.Fatalf("training should return baseline vectors for drift, got %d", len(baseline))
	}
}

func TestObtainModelLoadsFromDisk(t *testing.T) {
	logger := obs.NewLogger(os.Stderr, false)
	m := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, rep, baseline, err := ObtainModel(context.Background(), false, path, 0, false, logger)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dim() != m.Dim() || loaded.Accuracy != m.Accuracy {
		t.Fatal("loaded model differs")
	}
	if rep != nil {
		t.Fatal("file load should not fabricate a train report")
	}
	if baseline != nil {
		t.Fatal("file load should not fabricate a drift baseline")
	}
}

func TestObtainModelNoveltyGuard(t *testing.T) {
	logger := obs.NewLogger(os.Stderr, false)
	m, _, _, err := ObtainModel(context.Background(), true, "", 10000, true, logger)
	if err != nil {
		t.Fatal(err)
	}
	if m.NoveltyThreshold <= 0 {
		t.Fatal("novelty guard not armed")
	}
}

func TestObtainModelMissingFile(t *testing.T) {
	logger := obs.NewLogger(os.Stderr, false)
	if _, _, _, err := ObtainModel(context.Background(), false, filepath.Join(t.TempDir(), "no.json"), 0, false, logger); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestObtainModelCancelledTraining(t *testing.T) {
	logger := obs.NewLogger(os.Stderr, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := ObtainModel(ctx, true, "", 10000, false, logger)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestReplicaWarmsUpThroughAdminPush(t *testing.T) {
	m := trainedModel(t)
	wantHash, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}

	r, err := New(context.Background(), Config{Name: "warm-0", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}

	// Warming: scoring surface and health fail closed.
	resp, err := http.Get(r.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warming healthz returned %d, want 503", resp.StatusCode)
	}
	if r.ModelHash() != "" {
		t.Fatalf("warming replica reports hash %q", r.ModelHash())
	}

	// Distribution through the real controller path.
	b, err := fleet.NewBalancer(fleet.Config{Seed: 1, ExpectHash: wantHash},
		fleet.Member{Name: "warm-0", BaseURL: r.BaseURL()})
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&fleet.Controller{}).Distribute(context.Background(), b, m)
	if err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if !results[0].Admitted || results[0].Hash != wantHash {
		t.Fatalf("push result %+v, want admitted with hash %s", results[0], wantHash)
	}
	if r.ModelHash() != wantHash {
		t.Fatalf("deployed hash %s, want %s", r.ModelHash(), wantHash)
	}

	// Deployed: health opens up and the admin view matches.
	resp, err = http.Get(r.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deployed healthz returned %d", resp.StatusCode)
	}
	info, err := fleet.FetchModelInfo(context.Background(), http.DefaultClient, r.BaseURL())
	if err != nil {
		t.Fatal(err)
	}
	if info.Hash != wantHash || info.Features != m.Dim() {
		t.Fatalf("admin info %+v", info)
	}
}

func TestReplicaKillStopsListenerKeepsCounters(t *testing.T) {
	r, err := New(context.Background(), Config{Name: "kill-0", Addr: "127.0.0.1:0", Model: trainedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if r.ModelHash() == "" {
		t.Fatal("Config.Model was not deployed at startup")
	}
	resp, err := http.Get(r.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	r.Kill()
	if _, err := http.Get(r.BaseURL() + "/healthz"); err == nil {
		t.Fatal("killed replica still answers HTTP")
	}
	// In-process surfaces survive the kill.
	if exp := r.MetricsExposition(); !strings.Contains(exp, "polygraph_collections_total 0") {
		t.Fatal("metrics exposition unreadable after kill")
	}
	member := r.Member()
	if _, err := member.FetchMetrics(context.Background(), http.DefaultClient); err != nil {
		t.Fatal(err)
	}
	select {
	case <-r.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop did not exit after kill")
	}
	if !r.Killed() {
		t.Fatal("Killed() not reported")
	}
}

func TestReplicaReloadRetrainsAndKeepsServing(t *testing.T) {
	if testing.Short() {
		t.Skip("retrain reload is slow")
	}
	r, err := New(context.Background(), Config{
		Name: "reload-0", Addr: "127.0.0.1:0",
		Train: true, Sessions: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	before := r.ModelHash()
	if !r.TriggerReload() {
		t.Fatal("reload not started")
	}
	if r.TriggerReload() {
		t.Fatal("second trigger during reload should be dropped")
	}
	select {
	case err := <-r.ReloadDone():
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("reload did not finish")
	}
	// Deterministic pipeline: same sessions, same model, same hash.
	if after := r.ModelHash(); after != before {
		t.Fatalf("retrain changed hash %s -> %s", before, after)
	}
}

func TestReplicaFleetManagedHasNoReloadSource(t *testing.T) {
	r, err := New(context.Background(), Config{Name: "managed", Model: trainedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.TriggerReload() {
		t.Fatal("fleet-managed replica accepted a reload trigger")
	}
}

// TestReplicaSLOEngine pins the serving wiring: Config.SLOSpec arms a
// burn-rate engine on first deployment, the replica mux serves GET
// /debug/slo, and the replica's own exposition carries the
// polygraph_slo_* families.
func TestReplicaSLOEngine(t *testing.T) {
	r, err := New(context.Background(), Config{
		Name: "slo-0", Addr: "127.0.0.1:0", Model: trainedModel(t),
		SLOSpec: slo.DefaultSpec(),
		// A long interval keeps the background loop quiet; the test
		// ticks the engine explicitly.
		SLOInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	eng := r.SLO()
	if eng == nil {
		t.Fatal("no SLO engine after deployment with Config.SLOSpec")
	}

	resp, err := http.Get(r.BaseURL() + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slo returned %d", resp.StatusCode)
	}
	if !strings.Contains(string(body[:n]), `"spec": "polygraph-default"`) {
		t.Fatalf("/debug/slo page missing spec name:\n%s", body[:n])
	}

	// One explicit tick self-scrapes the replica's exposition.
	if err := eng.TickNow(); err != nil {
		t.Fatalf("tick: %v", err)
	}
	if eng.Status().Tick != 1 {
		t.Fatalf("tick %d, want 1", eng.Status().Tick)
	}
	if !strings.Contains(r.MetricsExposition(), "polygraph_slo_alert") {
		t.Fatal("replica exposition missing polygraph_slo_* families")
	}

	// No spec, no engine: the default configuration stays unchanged.
	r2, err := New(context.Background(), Config{Name: "slo-off", Model: trainedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.SLO() != nil {
		t.Fatal("engine attached without Config.SLOSpec")
	}
}
