package e2lshos

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"e2lshos/internal/diskindex"
)

// The serving tier's online-mutation surface: POST /v1/insert and DELETE
// /v1/object/{id}, available when the engine supports online updates
// (StorageIndex does; engines without the methods answer 501). With the
// engine built WithWAL each mutation is durable before its 200 — the ack
// the recovery contract is defined over.

// updatableEngine is the optional mutation surface of an Engine.
type updatableEngine interface {
	Insert(v []float32) (uint32, error)
	Delete(id uint32) (bool, error)
}

// recoverable is the optional durability-counter surface of an Engine.
type recoverable interface {
	RecoveryStats() RecoveryStats
}

// insertRequest is the /v1/insert body.
type insertRequest struct {
	Vector []float32 `json:"vector"`
}

// insertResponse is the /v1/insert reply: the durable object ID.
type insertResponse struct {
	ID uint32 `json:"id"`
}

// deleteResponse is the /v1/object/{id} DELETE reply.
type deleteResponse struct {
	ID      uint32 `json:"id"`
	Removed bool   `json:"removed"`
}

// updatable returns the engine's mutation surface, answering 501 when the
// engine does not support online updates.
func (s *Server) updatable(w http.ResponseWriter) (updatableEngine, bool) {
	u, ok := s.eng.(updatableEngine)
	if !ok {
		http.Error(w, "engine does not support online updates", http.StatusNotImplemented)
		return nil, false
	}
	return u, true
}

// handleInsertV1 is POST /v1/insert: add one vector online. The 200 carries
// the assigned object ID; with a WAL the insert is durable by then. Engine
// errors (ID space exhausted, log write failure) answer 500; they do not
// feed the readiness breaker, whose window is sized for query health.
func (s *Server) handleInsertV1(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	u, ok := s.updatable(w)
	if !ok {
		return
	}
	var body bytes.Buffer
	var req insertRequest
	if !s.readJSON(w, r, &body, &req) {
		return
	}
	if len(req.Vector) != s.cfg.Dim {
		http.Error(w, fmt.Sprintf("vector has %d dimensions, index has %d", len(req.Vector), s.cfg.Dim), http.StatusBadRequest)
		return
	}
	id, err := u.Insert(req.Vector)
	if err != nil {
		s.mu.Lock()
		s.failed++
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	s.inserts++
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, insertResponse{ID: id})
}

// handleObjectV1 is DELETE /v1/object/{id}: remove one object online. The
// reply reports whether any index entry was removed (false for an already
// deleted object); unknown IDs answer 404.
func (s *Server) handleObjectV1(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		http.Error(w, "DELETE required", http.StatusMethodNotAllowed)
		return
	}
	u, ok := s.updatable(w)
	if !ok {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/object/")
	id64, err := strconv.ParseUint(rest, 10, 32)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad object id %q", rest), http.StatusBadRequest)
		return
	}
	removed, err := u.Delete(uint32(id64))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, diskindex.ErrUnknownID) {
			status = http.StatusNotFound
		} else {
			s.mu.Lock()
			s.failed++
			s.mu.Unlock()
		}
		http.Error(w, err.Error(), status)
		return
	}
	s.mu.Lock()
	s.deletes++
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, deleteResponse{ID: uint32(id64), Removed: removed})
}
