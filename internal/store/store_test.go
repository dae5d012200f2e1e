package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
)

func testDB(t *testing.T) *dataset.Transactions {
	t.Helper()
	return dataset.New("test", [][]int32{
		{0, 1, 2},
		{1, 2},
		{2},
		{0, 2, 2}, // duplicate item within a record counts once
	})
}

func TestRegisterPrecomputesCounts(t *testing.T) {
	s := New()
	db := testDB(t)
	e, err := s.Register("sales", "test", db)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	want := db.ItemCounts()
	if got := e.ResolveAll(); !reflect.DeepEqual(got, want) {
		t.Errorf("ResolveAll = %v, want %v", got, want)
	}
	if got := e.CountScans(); got != 1 {
		t.Errorf("CountScans = %d, want 1", got)
	}
}

func TestResolveNeverRescans(t *testing.T) {
	s := New()
	e, err := s.Register("sales", "test", testDB(t))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < 10; i++ {
		e.ResolveAll()
		if _, err := e.ResolveItems([]int32{0, 2}); err != nil {
			t.Fatalf("ResolveItems: %v", err)
		}
	}
	if got := e.CountScans(); got != 1 {
		t.Errorf("CountScans after 20 resolutions = %d, want 1 (the registration precompute)", got)
	}
	if got := e.Resolutions(); got != 20 {
		t.Errorf("Resolutions = %d, want 20", got)
	}
}

func TestResolveItems(t *testing.T) {
	s := New()
	e, err := s.Register("sales", "test", testDB(t))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	got, err := e.ResolveItems([]int32{2, 0, 99})
	if err != nil {
		t.Fatalf("ResolveItems: %v", err)
	}
	// item 2 appears in all 4 records, item 0 in 2, item 99 is outside the
	// universe and counts zero.
	if want := []float64{4, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("ResolveItems = %v, want %v", got, want)
	}
	if _, err := e.ResolveItems([]int32{-1}); err == nil {
		t.Error("negative item id accepted")
	}
}

func TestRegisterRejects(t *testing.T) {
	s := New()
	db := testDB(t)
	if _, err := s.Register("sales", "test", db); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := s.Register("sales", "test", db); !errors.Is(err, ErrDatasetExists) {
		t.Errorf("duplicate registration error = %v, want ErrDatasetExists", err)
	}
	for _, name := range []string{"", "UPPER", "has space", "a/b", string(make([]byte, MaxNameLen+1))} {
		if _, err := s.Register(name, "test", db); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
	if _, err := s.Register("nil", "test", nil); err == nil {
		t.Error("nil dataset accepted")
	}
}

func TestStoreLimits(t *testing.T) {
	s := NewWithLimits(Limits{MaxDatasets: 1, MaxItems: 2, MaxRecords: 3})
	big := dataset.New("big", [][]int32{{0, 1, 2}}) // universe of 3 > MaxItems 2
	if _, err := s.Register("big", "test", big); err == nil {
		t.Error("oversized item universe accepted")
	}
	long := dataset.New("long", [][]int32{{0}, {0}, {0}, {0}}) // 4 records > MaxRecords 3
	if _, err := s.Register("long", "test", long); err == nil {
		t.Error("oversized record count accepted")
	}
	ok := dataset.New("ok", [][]int32{{0, 1}})
	if _, err := s.Register("first", "test", ok); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := s.Register("second", "test", ok); err == nil {
		t.Error("registration beyond MaxDatasets accepted")
	}
}

func TestGetAndListing(t *testing.T) {
	s := New()
	if _, err := s.Get("nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("Get error = %v, want ErrUnknownDataset", err)
	}
	db := testDB(t)
	mustRegister := func(name string) {
		t.Helper()
		if _, err := s.Register(name, "test", db); err != nil {
			t.Fatalf("Register %q: %v", name, err)
		}
	}
	mustRegister("zeta")
	mustRegister("alpha")
	if got, want := s.Names(), []string{"alpha", "zeta"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	infos := s.List()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "zeta" {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].Records != 4 || infos[0].Items != 3 || infos[0].CountScans != 1 {
		t.Errorf("Info = %+v", infos[0])
	}
	e, err := s.Get("alpha")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if e.Name() != "alpha" || e.Dataset() != db {
		t.Errorf("entry = %q / %p, want alpha / %p", e.Name(), e.Dataset(), db)
	}

	// Remove drops the entry once; the name is then unknown and free.
	if !s.Remove("alpha") {
		t.Fatal("Remove reported no dataset")
	}
	if s.Remove("alpha") {
		t.Error("second Remove reported a dataset")
	}
	if _, err := s.Get("alpha"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("Get after Remove: err = %v, want ErrUnknownDataset", err)
	}
	if got, want := s.Names(), []string{"zeta"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names after Remove = %v, want %v", got, want)
	}
}

func TestGenerateSynthetic(t *testing.T) {
	for _, kind := range []string{"bmspos", "kosarak", "t40i10d100k", "quest", "BMSPOS"} {
		db, err := GenerateSynthetic(kind, 1000, 7)
		if err != nil {
			t.Errorf("GenerateSynthetic(%q): %v", kind, err)
			continue
		}
		if db.NumRecords() == 0 || db.NumItems() == 0 {
			t.Errorf("GenerateSynthetic(%q) produced an empty dataset", kind)
		}
	}
	if _, err := GenerateSynthetic("nope", 1, 0); err == nil {
		t.Error("unknown synthetic kind accepted")
	}
}

func TestPreload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.dat")
	if err := os.WriteFile(path, []byte("0 1 2\n1 2\n2\n"), 0o600); err != nil {
		t.Fatal(err)
	}

	s := New()
	e, err := Preload{Name: "mini", Path: path}.Load(s)
	if err != nil {
		t.Fatalf("file preload: %v", err)
	}
	if got := e.Info(); got.Records != 3 || got.Items != 3 || got.Source != "file:"+path {
		t.Errorf("Info = %+v", got)
	}

	if _, err := (Preload{Name: "synth", Synthetic: "bmspos", Scale: 1000, Seed: 3}).Load(s); err != nil {
		t.Fatalf("synthetic preload: %v", err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}

	bad := []Preload{
		{Name: "both", Path: path, Synthetic: "bmspos"},
		{Name: "neither"},
		{Name: "nofile", Path: filepath.Join(dir, "missing.dat")},
		{Name: "nokind", Synthetic: "nope"},
	}
	for _, p := range bad {
		if _, err := p.Load(s); err == nil {
			t.Errorf("preload %+v accepted", p)
		}
	}
}

// TestConcurrentAccess exercises racing registrations and resolutions under
// the race detector.
func TestConcurrentAccess(t *testing.T) {
	s := New()
	db := testDB(t)
	if _, err := s.Register("shared", "test", db); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := []string{"a", "b", "c", "d", "e", "f", "g", "h"}[i]
			if _, err := s.Register(name, "test", db); err != nil {
				t.Errorf("Register %q: %v", name, err)
			}
			e, err := s.Get("shared")
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			e.ResolveAll()
			s.List()
		}(i)
	}
	wg.Wait()
	if got, err := s.Get("shared"); err != nil || got.Resolutions() != 8 {
		t.Errorf("shared resolutions = %v (err %v), want 8", got.Resolutions(), err)
	}
}
