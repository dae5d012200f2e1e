package server

// Durable-state glue: rebuilding the dataset catalog from journalled records
// at construction, and journalling new registrations while serving. Budget
// charges need no glue here — the persist log implements ChargeJournal, and
// the tenant registry installs it as a per-accountant hook so a WAL entry is
// written iff the charge committed.

import (
	"fmt"
	"os"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/persist"
	"github.com/freegap/freegap/internal/store"
)

// restoreDataset rebuilds one journalled dataset and registers it into the
// catalog. The counts are recomputed exactly once (the registration
// precompute), so restored datasets keep the zero-per-request-rescan
// property; restored registrations are not re-journalled. A name the caller
// already catalogued directly in Config.Datasets wins over the journalled
// copy — mirroring the Preload skip — so a pre-populated store never makes a
// restart unstartable.
func (s *Server) restoreDataset(rec persist.DatasetRecord) error {
	if _, err := s.datasets.Get(rec.Name); err == nil {
		return nil
	}
	db, err := s.materializeDataset(rec)
	if err != nil {
		return err
	}
	if _, err := s.datasets.Register(rec.Name, rec.Source, db); err != nil {
		return fmt.Errorf("server: restoring dataset %q: %w", rec.Name, err)
	}
	s.registerDatasetTelemetry(rec.Name)
	return nil
}

// materializeDataset turns a journalled record back into transactions:
// blob-backed records re-read their FIMI file under the catalog limits,
// synthetic records regenerate deterministically from kind/scale/seed.
func (s *Server) materializeDataset(rec persist.DatasetRecord) (*dataset.Transactions, error) {
	lim := s.datasets.Limits()
	switch {
	case rec.File != "":
		db, err := dataset.ReadFIMIFileLimited(s.persist.BlobPath(rec), dataset.FIMILimits{
			MaxRecords: lim.MaxRecords,
			MaxItemID:  int32(lim.MaxItems) - 1,
		})
		if err != nil {
			return nil, fmt.Errorf("server: restoring dataset %q: %w", rec.Name, err)
		}
		// The FIMI text only carries observed ids; restore the declared
		// universe so all_items workloads keep their exact shape.
		return db.WithUniverse(rec.Items), nil
	case rec.Synthetic != nil:
		db, err := store.GenerateSynthetic(rec.Synthetic.Kind, rec.Synthetic.Scale, rec.Synthetic.Seed)
		if err != nil {
			return nil, fmt.Errorf("server: restoring dataset %q: %w", rec.Name, err)
		}
		return db, nil
	default:
		return nil, fmt.Errorf("server: dataset record %q names neither a blob nor a synthetic spec", rec.Name)
	}
}

// journalDataset makes one freshly registered dataset durable. Synthetic
// datasets (syn != nil) are journalled as their generator spec — regeneration
// with the same kind/scale/seed is deterministic and, unlike a FIMI blob,
// preserves the exact item universe (trailing zero-count items have no
// transactions to serialise). Everything else becomes a FIMI blob under the
// state directory, written and synced before the WAL record that references
// it. A nil persist log makes it a no-op.
func (s *Server) journalDataset(entry *store.Entry, syn *persist.SyntheticRecord) error {
	if s.persist == nil {
		return nil
	}
	info := entry.Info()
	rec := persist.DatasetRecord{Name: info.Name, Source: info.Source, Items: info.Items, Synthetic: syn}
	if syn == nil {
		rel, err := s.persist.SaveDatasetBlob(info.Name, entry.Dataset())
		if err != nil {
			return fmt.Errorf("server: persisting dataset %q: %w", info.Name, err)
		}
		rec.File = rel
	}
	if err := s.persist.AppendDataset(rec); err != nil {
		if rec.File != "" {
			// Nothing durable references the blob; reclaim it instead of
			// leaving an orphan in the state directory.
			_ = os.Remove(s.persist.BlobPath(rec))
		}
		return fmt.Errorf("server: journalling dataset %q: %w", info.Name, err)
	}
	return nil
}
