package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout redirects os.Stdout for the duration of fn and returns what
// was written.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f
	defer func() { os.Stdout = old }()
	runErr := fn()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestRunDatasetsTable(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-experiments", "datasets", "-scale", "500", "-trials", "10"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "BMS-POS") || !strings.Contains(out, "Kosarak") {
		t.Fatalf("dataset table missing rows:\n%s", out)
	}
}

func TestRunSingleFigureCSV(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-experiments", "fig4", "-scale", "500", "-trials", "20", "-format", "csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "k,BMS-POS") {
		t.Fatalf("CSV header missing:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
		t.Fatalf("too few CSV rows:\n%s", out)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-experiments", "corollary1,ties", "-scale", "500", "-trials", "20"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Corollary 1") || !strings.Contains(out, "tie probability") {
		t.Fatalf("expected both experiments in output:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// Serving benchmarks are not dpbench experiments: perfbench drives the
	// real dpserver binary and internal/server holds the Go benchmarks.
	for _, name := range []string{"fig99", "servebench", "planbench"} {
		if err := run([]string{"-experiments", name}); err == nil {
			t.Errorf("unknown experiment %q accepted", name)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-notaflag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
