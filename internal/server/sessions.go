package server

import (
	"context"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/evlog"
	"repro/internal/monitor"
)

// registerSessionRoutes wires the continuous-monitoring endpoints:
//
//	POST   /sessions             api.SessionRequest -> api.SessionCreated
//	GET    /sessions/{id}        -> api.SessionSnapshot
//	GET    /sessions/{id}/stream -> NDJSON api.StreamEvent lines
//	DELETE /sessions/{id}        -> 204
func registerSessionRoutes(mux router, reg *monitor.Registry) {
	mux.HandleFunc("POST /sessions", handleJSON(http.StatusCreated,
		func(ctx context.Context, req api.SessionRequest) (api.SessionCreated, error) {
			sess, err := reg.Open(ctx, req)
			if err != nil {
				return api.SessionCreated{}, err
			}
			return api.SessionCreated{ID: sess.ID, Config: sess.Config()}, nil
		}))
	registerItemRoutes(mux, "/sessions", reg.Registry, (*monitor.Session).Snapshot)
}

// registerItemRoutes wires the routes every registry resource shares
// under base:
//
//	GET    {base}/{id}        -> the item's snapshot
//	GET    {base}/{id}/stream -> its event log as NDJSON lines
//	DELETE {base}/{id}        -> 204
func registerItemRoutes[T evlog.Item, S any](mux router, base string, reg *evlog.Registry[T], snapshot func(T) S) {
	get := func(serve func(w http.ResponseWriter, r *http.Request, item T)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if item, err := reg.Get(r.PathValue("id")); err != nil {
				api.WriteError(w, statusFor(err), err)
			} else {
				serve(w, r, item)
			}
		}
	}
	mux.HandleFunc("GET "+base+"/{id}", get(func(w http.ResponseWriter, _ *http.Request, item T) {
		api.WriteJSON(w, http.StatusOK, snapshot(item))
	}))
	mux.HandleFunc("GET "+base+"/{id}/stream", get(func(w http.ResponseWriter, r *http.Request, item T) {
		streamEvents(w, r, item.Log())
	}))
	mux.HandleFunc("DELETE "+base+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := reg.Delete(r.PathValue("id")); err != nil {
			api.WriteError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
}

// streamEvents writes an event log as NDJSON, replaying everything
// already produced and then following live until the producer ends
// (done, deleted, evicted, or drained) or the client disconnects. Each
// event is one line, flushed as it happens. The replay-then-follow
// design is what makes the stream independent of attach timing: a
// client that connects late still receives the complete, byte-identical
// series.
func streamEvents(w http.ResponseWriter, r *http.Request, log *evlog.Log) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	// The server's ReadTimeout governs reading the *request* and does
	// not cancel a running handler, but clear this connection's read
	// deadline anyway so a stream outliving it can never be severed by
	// a toolchain that polices the deadline from its background read.
	// The next request on the connection gets a fresh deadline.
	http.NewResponseController(w).SetReadDeadline(time.Time{})
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)

	log.Subscribe()
	defer log.Unsubscribe()

	i := 0
	for {
		lines, next, wait, done := log.Events(i)
		i = next
		if len(lines) > 0 {
			for _, line := range lines {
				w.Write(line)
				w.Write([]byte("\n"))
			}
			if canFlush {
				flusher.Flush()
			}
			continue
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}
