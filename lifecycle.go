package dynaminer

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/netip"
	"os"
	"time"

	"dynaminer/internal/detector"
	"dynaminer/internal/obs"
)

// Model lifecycle and crash recovery (DESIGN.md §13): hot-swapping the
// serving forest without dropping a watch, checkpointing in-flight state,
// and rebuilding it after a restart.

// ModelVersion identifies the exact forest a classification came from:
// a monotonic in-process generation plus the CRC-32 of the model's
// canonical DMFB blob encoding.
type ModelVersion = detector.ModelVersion

// CheckpointInfo summarizes a DMCP checkpoint artifact.
type CheckpointInfo = detector.CheckpointInfo

// ReadCheckpointInfoFile validates and summarizes a DMCP checkpoint file
// without restoring it.
func ReadCheckpointInfoFile(path string) (CheckpointInfo, error) {
	return detector.ReadCheckpointInfoFile(path)
}

// ModelVersion returns the version of the forest currently serving
// classifications.
func (m *Monitor) ModelVersion() ModelVersion { return m.engine.ModelVersion() }

// ReloadModelFile reads a DMFB model file through the full semantic
// screens and atomically hot-swaps it into the running engine: watches
// armed before the swap keep scoring through their pinned version,
// watches armed after it use the new forest. On any failure the serving
// model keeps scoring untouched and dynaminer_model_reload_failures_total
// increments.
func (m *Monitor) ReloadModelFile(path string) (ModelVersion, error) {
	return m.engine.ReloadModelFile(path)
}

// RollbackModel atomically reinstates the previously served model under
// its original version identity.
func (m *Monitor) RollbackModel() (ModelVersion, error) { return m.engine.RollbackModel() }

// SetModelPath records the default model artifact for reloads that name
// no path (SIGHUP, a bare POST /reload).
func (m *Monitor) SetModelPath(path string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.modelPath = path
}

// ModelPath returns the default reload artifact, "" when unset.
func (m *Monitor) ModelPath() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.modelPath
}

// WriteCheckpoint atomically writes the engine's in-flight state — every
// session cluster, watch, and pin — to path (staged and renamed, so a
// crash mid-write leaves the previous checkpoint intact).
func (m *Monitor) WriteCheckpoint(path string) error {
	if err := m.engine.WriteCheckpointFile(path); err != nil {
		m.checkpointFailures.Inc()
		return err
	}
	m.checkpoints.Inc()
	return nil
}

// StartCheckpointer launches a background writer that checkpoints the
// engine to path every interval (zero selects 30 seconds), bounding how
// much in-flight watch state a crash can cost. Starting an
// already-running checkpointer is a no-op; Shutdown (or Close) stops it
// after one final checkpoint.
func (m *Monitor) StartCheckpointer(path string, interval time.Duration) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ckptStop != nil {
		return
	}
	m.checkpointPath = path
	stop, done := make(chan struct{}), make(chan struct{})
	m.ckptStop, m.ckptDone = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				func() {
					// Last-resort guard, per write: a checkpoint fault must
					// never take the process down, nor end later writes.
					defer func() { recover() }()
					_ = m.WriteCheckpoint(path)
				}()
			}
		}
	}()
}

// Recover rebuilds the monitor's in-flight state after a restart: the
// checkpoint restores every session cluster and watch (replayed through
// the real pipeline, pins re-attached by blob CRC), then the alert
// journal marks watches whose alerts fired after that checkpoint so they
// are not raised twice. A missing checkpoint or journal is a cold start,
// not an error; a corrupt checkpoint is an error and leaves cold-start
// the right response. Call before any traffic flows.
func (m *Monitor) Recover(checkpointPath, journalPath string) (watches, marked int, err error) {
	if checkpointPath != "" {
		if _, statErr := os.Stat(checkpointPath); statErr == nil {
			if _, err = m.engine.RestoreCheckpointFile(checkpointPath); err != nil {
				return 0, 0, err
			}
			watches = len(m.engine.Watched())
		}
	}
	if journalPath != "" {
		if _, statErr := os.Stat(journalPath); statErr == nil {
			recs, readErr := obs.ReadJournalFile(journalPath)
			if readErr != nil {
				return watches, 0, fmt.Errorf("recover journal: %w", readErr)
			}
			for _, rec := range recs {
				client, parseErr := netip.ParseAddr(rec.Client)
				if parseErr != nil {
					continue
				}
				if m.engine.MarkAlerted(client, rec.ClusterID) {
					marked++
				}
			}
		}
	}
	return watches, marked, nil
}

// Shutdown drains the monitor for a clean exit: the background
// checkpointer and the admin server stop, a final checkpoint is written
// when a checkpointer was running, and the alert journal (when
// configured) is forced to stable storage. The engine itself stays
// usable — callers that own the intake stop feeding it first.
func (m *Monitor) Shutdown() error {
	m.mu.Lock()
	ckptPath := m.checkpointPath
	m.checkpointPath = ""
	m.mu.Unlock()

	m.Close() // stops checkpointer, admin

	var err error
	if ckptPath != "" {
		err = m.WriteCheckpoint(ckptPath)
	}
	if m.journal != nil {
		if syncErr := m.journal.Sync(); syncErr != nil && err == nil {
			err = syncErr
		}
	}
	return err
}

// reloadReply is the JSON body the lifecycle endpoints answer with.
type reloadReply struct {
	Version string `json:"version"`
	Error   string `json:"error,omitempty"`
}

func writeReloadReply(w http.ResponseWriter, status int, v ModelVersion, err error) {
	reply := reloadReply{Version: v.String()}
	if err != nil {
		reply.Error = err.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(reply)
}

// reloadHandlers returns the model-lifecycle admin endpoints
// Monitor.StartAdmin mounts:
//
//	POST /reload?path=FILE — validate FILE (default: ModelPath())
//	    through the full semantic screens and hot-swap it; 422 with the
//	    rejection reason when the screens fail, serving untouched.
//	POST /rollback — reinstate the previous model.
//
// Both answer {"version": "g<gen>-<crc>"} with the now-serving version.
func (m *Monitor) reloadHandlers() map[string]http.Handler {
	reload := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			writeReloadReply(w, http.StatusMethodNotAllowed, m.ModelVersion(), fmt.Errorf("use POST"))
			return
		}
		path := req.URL.Query().Get("path")
		if path == "" {
			path = m.ModelPath()
		}
		if path == "" {
			writeReloadReply(w, http.StatusBadRequest, m.ModelVersion(), fmt.Errorf("no model path: pass ?path= or configure a default"))
			return
		}
		v, err := m.ReloadModelFile(path)
		if err != nil {
			writeReloadReply(w, http.StatusUnprocessableEntity, v, err)
			return
		}
		writeReloadReply(w, http.StatusOK, v, nil)
	})
	rollback := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			writeReloadReply(w, http.StatusMethodNotAllowed, m.ModelVersion(), fmt.Errorf("use POST"))
			return
		}
		v, err := m.RollbackModel()
		if err != nil {
			writeReloadReply(w, http.StatusConflict, v, err)
			return
		}
		writeReloadReply(w, http.StatusOK, v, nil)
	})
	return map[string]http.Handler{"/reload": reload, "/rollback": rollback}
}
