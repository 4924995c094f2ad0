// Recovery: opening a durability root after a clean exit or a crash.
//
// OpenDurable reconstructs the database as of the durable prefix — the
// last published checkpoint plus every intact WAL record after it — and
// returns a WAL positioned to append at the first byte past that prefix.
// The invariants:
//
//   - A record is replayed iff it is entirely on disk with a valid
//     checksum AND every record before it (across file rotations) is too.
//     The first torn or corrupt frame ends the durable prefix; the tail
//     is truncated away and later files deleted.
//   - A checkpoint is used iff CURRENT names it; tmp-* leftovers from
//     checkpoints that died mid-write are swept unread.
//   - Indexes and statistics are rebuilt after replay, so the recovered
//     catalog is query-ready exactly like a snapshot Load.
package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
)

// DurableOpts configure the WAL returned by OpenDurable.
type DurableOpts struct {
	Policy FsyncPolicy
	// Interval is the fsync period under FsyncInterval (default 100ms).
	Interval time.Duration
	// Faults, when non-nil, arms crash-fault injection on the live WAL.
	Faults *CrashFaults
}

// RecoveryInfo reports what OpenDurable did, for operators' startup logs
// and db.ResourceStats().
type RecoveryInfo struct {
	// Checkpoint is the checkpoint directory restored, "" if none.
	Checkpoint string
	// ReplayedRecords and ReplayedRows count the WAL tail applied on top
	// of the checkpoint (rows counts append-batch rows only).
	ReplayedRecords int64
	ReplayedRows    int64
	// TruncatedBytes counts WAL bytes discarded past the durable prefix —
	// torn frames, corrupt records, and any files after them.
	TruncatedBytes int64
	// Seeded reports that the root was empty and the seed callback
	// populated it (followed by an initial checkpoint).
	Seeded bool
}

// OpenDurable opens dir as a durability root: recover the durable prefix,
// position the WAL for appending, and return the live catalog. When the
// root is empty (no checkpoint, no WAL) and seed is non-nil, seed supplies
// the initial database, which is made durable with an immediate
// checkpoint before OpenDurable returns.
func OpenDurable(dir string, seed func() (*catalog.Database, *core.Registry, error), o DurableOpts) (*catalog.Database, *core.Registry, *WAL, RecoveryInfo, error) {
	var info RecoveryInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, info, err
	}
	sweepTmp(dir)

	current, err := readCurrent(dir)
	if err != nil {
		return nil, nil, nil, info, err
	}
	var db *catalog.Database
	var reg *core.Registry
	fromSeq := uint64(1)
	if current != "" {
		ckdir := filepath.Join(dir, current)
		meta, err := readCheckpointMeta(ckdir)
		if err != nil {
			return nil, nil, nil, info, err
		}
		if db, reg, err = Load(ckdir); err != nil {
			return nil, nil, nil, info, fmt.Errorf("persist: checkpoint %s: %w", current, err)
		}
		fromSeq = meta.WALSeq
		info.Checkpoint = current
		sweepCheckpoints(dir, current)
	} else {
		db = catalog.NewDatabase()
		reg = core.NewRegistry(db)
	}

	// WAL files below the checkpoint's stamp are fully contained in it.
	seqs, err := walFiles(dir)
	if err != nil {
		return nil, nil, nil, info, err
	}
	var live []uint64
	for _, s := range seqs {
		if s < fromSeq {
			_ = os.Remove(filepath.Join(dir, walFileName(s)))
			continue
		}
		live = append(live, s)
	}

	if current == "" && len(live) == 0 {
		// Fresh root.
		if seed != nil {
			if db, reg, err = seed(); err != nil {
				return nil, nil, nil, info, err
			}
			info.Seeded = true
		}
		f, err := createWALFile(dir, 1)
		if err != nil {
			return nil, nil, nil, info, err
		}
		w := &WAL{dir: dir, policy: o.Policy, interval: o.Interval, faults: o.Faults, f: f, seq: 1}
		w.start(walHeaderSize)
		if info.Seeded {
			if err := w.Checkpoint(db, reg); err != nil {
				w.Close()
				return nil, nil, nil, info, fmt.Errorf("persist: seed checkpoint: %w", err)
			}
		}
		return db, reg, w, info, nil
	}

	rep := &replayer{db: db, reg: reg, info: &info}
	liveSeq, liveEnd := fromSeq, int64(walHeaderSize)
	stop := false
	for i, s := range live {
		if stop || (i > 0 && s != live[i-1]+1) {
			// Past the durable prefix (earlier truncation or a sequence
			// gap): these records must not be replayed.
			if st, err := os.Stat(filepath.Join(dir, walFileName(s))); err == nil {
				info.TruncatedBytes += st.Size()
			}
			_ = os.Remove(filepath.Join(dir, walFileName(s)))
			continue
		}
		path := filepath.Join(dir, walFileName(s))
		goodEnd, n, err := replayFile(path, 0, rep.apply)
		if err != nil {
			return nil, nil, nil, info, fmt.Errorf("persist: replay %s: %w", walFileName(s), err)
		}
		info.ReplayedRecords += n
		liveSeq, liveEnd = s, goodEnd
		if st, err := os.Stat(path); err == nil && goodEnd < st.Size() {
			info.TruncatedBytes += st.Size() - goodEnd
			stop = true
		}
	}
	if err := rep.finish(); err != nil {
		return nil, nil, nil, info, err
	}

	var f *os.File
	if liveEnd < walHeaderSize {
		// The live file is torn inside its own header: recreate it.
		if f, err = createWALFile(dir, liveSeq); err != nil {
			return nil, nil, nil, info, err
		}
		liveEnd = walHeaderSize
	} else if len(live) == 0 {
		// Checkpoint published but the crash beat the rotation: start the
		// file the checkpoint stamp expects.
		if f, err = createWALFile(dir, liveSeq); err != nil {
			return nil, nil, nil, info, err
		}
	} else {
		if f, err = openWALAt(dir, liveSeq, liveEnd); err != nil {
			return nil, nil, nil, info, err
		}
	}
	w := &WAL{dir: dir, policy: o.Policy, interval: o.Interval, faults: o.Faults, f: f, seq: liveSeq}
	w.start(liveEnd)
	return db, reg, w, info, nil
}

// replayer applies decoded WAL records to a recovering catalog.
type replayer struct {
	db   *catalog.Database
	reg  *core.Registry
	info *RecoveryInfo
	// touched tables get their stats re-analyzed once at the end
	// (appends keep indexes current, but not statistics).
	touched map[string]bool
	// pending holds each table's replayed rows in log order. finish
	// appends them in one call per table, so the table's existing
	// indexes absorb the whole replay in one merge rather than one per
	// record; row IDs and segments come out as if appended per record.
	pending map[*storage.Table][]schema.Row
	// indexes defers build_index DDL to finish, after the appends.
	indexes map[string]map[string]bool
}

func (rp *replayer) apply(rec Record) error {
	switch rec.Type {
	case recAppend:
		var p appendPayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return fmt.Errorf("append record: %w", err)
		}
		t, ok := rp.db.Table(p.Table)
		if !ok {
			return fmt.Errorf("append record: no table %q", p.Table)
		}
		for _, enc := range p.Rows {
			if len(enc) != t.Schema.Len() {
				return fmt.Errorf("append record: row arity %d vs schema %d for %s", len(enc), t.Schema.Len(), p.Table)
			}
			row := make(schema.Row, len(enc))
			for j, s := range enc {
				v, err := decodeValue(s, t.Schema.Columns[j].Kind)
				if err != nil {
					return fmt.Errorf("append record: table %s column %s: %w", p.Table, t.Schema.Columns[j].Name, err)
				}
				row[j] = v
			}
			if rp.pending == nil {
				rp.pending = make(map[*storage.Table][]schema.Row)
			}
			rp.pending[t] = append(rp.pending[t], row)
		}
		rp.info.ReplayedRows += int64(len(p.Rows))
		rp.touch(p.Table)
	case recDDL:
		var d DDLRecord
		if err := json.Unmarshal(rec.Payload, &d); err != nil {
			return fmt.Errorf("ddl record: %w", err)
		}
		return rp.applyDDL(d)
	case recRule:
		if _, err := rp.reg.Define(string(rec.Payload)); err != nil {
			return fmt.Errorf("rule record: %w", err)
		}
	default:
		return fmt.Errorf("unknown wal record type %d", rec.Type)
	}
	return nil
}

func (rp *replayer) applyDDL(d DDLRecord) error {
	switch d.Op {
	case DDLCreateTable:
		s := &schema.Schema{}
		for _, c := range d.Columns {
			k, err := kindOf(c.Kind)
			if err != nil {
				return fmt.Errorf("ddl record: table %s: %w", d.Name, err)
			}
			s.Columns = append(s.Columns, schema.Col(d.Name, c.Name, k))
		}
		return rp.db.AddTable(storage.NewTable(d.Name, s))
	case DDLCreateView:
		stmt, err := sqlparser.Parse(d.SQL)
		if err != nil {
			return fmt.Errorf("ddl record: view %s: %w", d.Name, err)
		}
		return rp.db.AddView(d.Name, stmt)
	case DDLBuildIndex:
		if rp.indexes == nil {
			rp.indexes = make(map[string]map[string]bool)
		}
		if rp.indexes[d.Table] == nil {
			rp.indexes[d.Table] = make(map[string]bool)
		}
		rp.indexes[d.Table][d.Column] = true
		rp.touch(d.Table)
	default:
		return fmt.Errorf("unknown ddl op %q", d.Op)
	}
	return nil
}

func (rp *replayer) touch(table string) {
	if rp.touched == nil {
		rp.touched = make(map[string]bool)
	}
	rp.touched[table] = true
}

// finish applies the replayed appends, builds the deferred indexes, and
// refreshes statistics for every table replay touched.
func (rp *replayer) finish() error {
	for t, rows := range rp.pending {
		if err := t.Append(rows...); err != nil {
			return fmt.Errorf("persist: replay: %w", err)
		}
	}
	for name, cols := range rp.indexes {
		t, ok := rp.db.Table(name)
		if !ok {
			return fmt.Errorf("persist: replay: index on unknown table %q", name)
		}
		for col := range cols {
			if err := t.BuildIndex(col); err != nil {
				return fmt.Errorf("persist: replay: %w", err)
			}
		}
	}
	for name := range rp.touched {
		if t, ok := rp.db.Table(name); ok {
			t.Analyze()
		}
	}
	return nil
}
