package evlog_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/campaign/gen"
	"repro/internal/evlog"
	"repro/internal/monitor"
	"repro/internal/plan"
	"repro/internal/service"
)

// The shared lifecycle suite: every case runs against a fake item, a
// monitoring session and a validation campaign, each through the
// registry it really lives in.

func TestRegistry(t *testing.T)         { runSuite(t, fakeKind) }
func TestSessionRegistry(t *testing.T)  { runSuite(t, sessionKind) }
func TestCampaignRegistry(t *testing.T) { runSuite(t, campaignKind) }

// TestOpenRechecksAfterBuild fills the last slot while an Open is
// building: that Open is refused, and its item is ended and run so its
// producer releases what the build acquired.
func TestOpenRechecksAfterBuild(t *testing.T) {
	reg := evlog.NewRegistry[*fakeItem](evlog.RegistryConfig{Pkg: "fake", Noun: "item", MaxActive: 1, SweepInterval: -1})
	t.Cleanup(reg.Close)
	var lost *fakeItem
	_, err := reg.Open(func(id string) (*fakeItem, error) {
		if _, err := reg.Open(func(id string) (*fakeItem, error) { return newFake(id, true, nil), nil }); err != nil {
			t.Errorf("open while another builds: %v", err)
		}
		lost = newFake(id, true, nil)
		return lost, nil
	})
	if !errors.Is(err, evlog.ErrFull) || consume(lost.log) != api.SessionDrained {
		t.Errorf("open that lost the slot: %v, want ErrFull and its item drained", err)
	}
	wantStats(t, reg, 1, 1)
}

// harness is one registry under test, whatever its item type.
type harness struct {
	pkg, noun string
	// producer names the item's producer in a goroutine dump.
	producer string
	// open starts an item: a long one produces until it is ended, a
	// short one finishes by itself.
	open func(long bool) (id string, log *evlog.Log, err error)
	get  func(id string) error
	reg  interface {
		Delete(id string) error
		Sweep() int
		Stats() (active, retained int)
		Close()
	}
	advance func(time.Duration) // moves the registry's clock
}

var suite = []struct {
	name string
	max  int
	run  func(*testing.T, harness)
}{
	{"limit", 1, func(t *testing.T, h harness) {
		mustOpen(t, h, true)
		_, _, err := h.open(true)
		if want := fmt.Sprintf("%s: too many %ss (limit 1)", h.pkg, h.noun); !errors.Is(err, evlog.ErrFull) || err.Error() != want {
			t.Errorf("open over the limit: %v, want ErrFull %q", err, want)
		}
	}},
	// The limit bounds producers, so a finished (but still queryable)
	// item must not block new ones.
	{"finished_free_their_slot", 1, func(t *testing.T, h harness) {
		for range 2 {
			_, log := mustOpen(t, h, false)
			if reason := consume(log); reason != api.SessionDone {
				t.Fatalf("end reason = %q, want done", reason)
			}
		}
		wantStats(t, h.reg, 0, 2)
	}},
	// Flooding the registry with short items keeps the map at the
	// retention cap (4 per active slot) by displacing the least recently
	// accessed finished items.
	{"retention_bounded", 2, func(t *testing.T, h harness) {
		for range 12 {
			_, log := mustOpen(t, h, false)
			consume(log)
		}
		if _, retained := h.reg.Stats(); retained > 8 {
			t.Errorf("registry retains %d items, want <= 8", retained)
		}
	}},
	// An item nobody watches is evicted once idle, producing or not; an
	// attached stream keeps it alive however long it lasts.
	{"sweep", 1, func(t *testing.T, h harness) {
		id, log := mustOpen(t, h, true)
		if n := h.reg.Sweep(); n != 0 {
			t.Fatalf("fresh item evicted (%d)", n)
		}
		log.Subscribe()
		h.advance(time.Hour)
		if n := h.reg.Sweep(); n != 0 {
			t.Fatalf("subscribed item evicted (%d)", n)
		}
		log.Unsubscribe()
		h.advance(2 * time.Minute)
		if n := h.reg.Sweep(); n != 1 {
			t.Fatalf("Sweep evicted %d items, want 1", n)
		}
		if reason := consume(log); reason != api.SessionEvicted {
			t.Errorf("end reason = %q, want evicted", reason)
		}
		err := h.get(id)
		if want := fmt.Sprintf("%s: no such %s: %s", h.pkg, h.noun, id); !errors.Is(err, evlog.ErrNotFound) || err.Error() != want {
			t.Errorf("Get after eviction: %v, want ErrNotFound %q", err, want)
		}
		wantStats(t, h.reg, 0, 0)
	}},
	// Deleting a producing item under an attached stream ends the stream
	// cleanly after a partial series, and the producer exits.
	{"delete", 1, func(t *testing.T, h harness) {
		id, log := mustOpen(t, h, true)
		got := follow(log)
		if err := h.reg.Delete(id); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if reason := <-got; reason != api.SessionDeleted {
			t.Errorf("stream end reason = %q, want deleted", reason)
		}
		if err := h.reg.Delete(id); !errors.Is(err, evlog.ErrNotFound) {
			t.Errorf("second delete: %v, want ErrNotFound", err)
		}
		wantStats(t, h.reg, 0, 0)
		wantNoProducers(t, h, 5*time.Second) // Delete alone stops it
		h.reg.Close()
	}},
	// Close ends every open stream with a drained end event and returns
	// only once no producer goroutine is left; the closed registry
	// refuses new items.
	{"drain", 2, func(t *testing.T, h harness) {
		var streams []<-chan string
		for range 2 {
			_, log := mustOpen(t, h, true)
			streams = append(streams, follow(log))
		}
		h.reg.Close()
		wantNoProducers(t, h, 0)
		for _, got := range streams {
			if reason := <-got; reason != api.SessionDrained {
				t.Errorf("stream end reason = %q, want drained", reason)
			}
		}
		h.reg.Close()
		_, _, err := h.open(false)
		if want := h.pkg + ": registry closed"; !errors.Is(err, evlog.ErrClosed) || err.Error() != want {
			t.Errorf("open after Close: %v, want ErrClosed %q", err, want)
		}
	}},
}

// runSuite runs every case against registries built by kind, which
// bounds them at max active items, with the janitor off and an idle
// timeout of one minute on the clock now.
func runSuite(t *testing.T, kind func(max int, now func() time.Time) harness) {
	for _, c := range suite {
		t.Run(c.name, func(t *testing.T) {
			var clock atomic.Int64
			h := kind(c.max, func() time.Time { return time.Unix(1_700_000_000, clock.Load()) })
			h.advance = func(d time.Duration) { clock.Add(int64(d)) }
			t.Cleanup(h.reg.Close)
			c.run(t, h)
		})
	}
}

// bind wraps a registry of any item type as a harness.
func bind[T evlog.Item](reg *evlog.Registry[T], open func(long bool) (T, error), id func(T) string) harness {
	return harness{
		reg: reg,
		open: func(long bool) (string, *evlog.Log, error) {
			item, err := open(long)
			if err != nil {
				return "", nil, err
			}
			return id(item), item.Log(), nil
		},
		get: func(id string) error { _, err := reg.Get(id); return err },
	}
}

// fakeItem appends one event per millisecond until it is ended or, if
// short, after three events.
type fakeItem struct {
	id   string
	log  *evlog.Log
	long bool
	stop chan struct{}
}

func newFake(id string, long bool, now func() time.Time) *fakeItem {
	return &fakeItem{id: id, log: evlog.New(64, now), long: long, stop: make(chan struct{})}
}

func (f *fakeItem) Log() *evlog.Log { return f.log }

func (f *fakeItem) End(reason string) {
	if f.log.End(api.StreamEvent{Type: api.StreamEnd, Reason: reason}) {
		close(f.stop)
	}
}

func (f *fakeItem) Run() {
	for i := 0; f.long || i < 3; i++ {
		select {
		case <-f.stop:
			return
		case <-time.After(time.Millisecond):
		}
		f.log.Append(api.StreamEvent{Type: api.StreamSample})
	}
	f.End(api.SessionDone)
}

func fakeKind(max int, now func() time.Time) harness {
	reg := evlog.NewRegistry[*fakeItem](evlog.RegistryConfig{
		Pkg: "fake", Noun: "item", MaxActive: max, IdleTimeout: time.Minute, SweepInterval: -1, Now: now,
	})
	h := bind(reg, func(long bool) (*fakeItem, error) {
		return reg.Open(func(id string) (*fakeItem, error) { return newFake(id, long, now), nil })
	}, func(f *fakeItem) string { return f.id })
	h.pkg, h.noun, h.producer = "fake", "item", "evlog_test.(*fakeItem)"
	return h
}

func sessionKind(max int, now func() time.Time) harness {
	svc := service.New(service.Config{WorkersPerShard: 2, CalibrationRuns: 5})
	reg := monitor.NewRegistry(svc, monitor.Config{MaxSessions: max, IdleTimeout: time.Minute, SweepInterval: -1, Now: now})
	h := bind(reg.Registry, func(long bool) (*monitor.Session, error) {
		req := api.SessionRequest{Measure: api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000"}, Steps: 4}
		if long {
			req.Steps, req.IntervalMS = 10_000, 5 // paced: still producing when ended
		}
		return reg.Open(context.Background(), req)
	}, func(s *monitor.Session) string { return s.ID })
	h.pkg, h.noun, h.producer = "monitor", "session", "monitor.(*Session)"
	return h
}

func campaignKind(max int, now func() time.Time) harness {
	svc := service.New(service.Config{WorkersPerShard: 2, CalibrationRuns: 5})
	// Program 0 (class mix) is measured; programs 1 and 2 hang until
	// their campaign ends, program 2 (class chase) 100ms longer, so a Run
	// that returned without waiting for its workers leaves one behind.
	measure := func(ctx context.Context, req api.MeasureRequest) (*api.MeasureResponse, error) {
		if strings.Contains(req.Bench, ":"+string(gen.ClassMix)+":") {
			return svc.Measure(ctx, req)
		}
		if <-ctx.Done(); strings.Contains(req.Bench, ":"+string(gen.ClassChase)+":") {
			time.Sleep(100 * time.Millisecond)
		}
		return nil, ctx.Err()
	}
	reg := campaign.NewRegistry(campaign.Services{Measure: measure, Infer: svc.Infer, Plan: plan.New(svc).Do},
		campaign.Config{MaxCampaigns: max, IdleTimeout: time.Minute, SweepInterval: -1, Concurrency: 3, Now: now})
	h := bind(reg.Registry, func(long bool) (*campaign.Campaign, error) {
		req := api.CampaignRequest{Programs: 1, Runs: 2, EngineEvery: -1, InferEvery: -1, PlanEvery: -1}
		if long {
			req.Programs = 200
		}
		return reg.Open(req)
	}, func(c *campaign.Campaign) string { return c.ID })
	h.pkg, h.noun, h.producer = "campaign", "campaign", "campaign.(*Campaign)"
	return h
}

func mustOpen(t *testing.T, h harness, long bool) (string, *evlog.Log) {
	t.Helper()
	id, log, err := h.open(long)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return id, log
}

func wantStats(t *testing.T, reg interface{ Stats() (int, int) }, active, retained int) {
	t.Helper()
	if a, r := reg.Stats(); a != active || r != retained {
		t.Errorf("Stats = %d active, %d retained; want %d, %d", a, r, active, retained)
	}
}

// consume follows a log to its end event and returns the end reason.
func consume(log *evlog.Log) string {
	log.Subscribe()
	defer log.Unsubscribe()
	var last []byte
	for i := 0; ; {
		lines, next, wait, done := log.Events(i)
		if i = next; len(lines) > 0 {
			last = lines[len(lines)-1]
		} else if done {
			break
		} else {
			<-wait
		}
	}
	var end api.StreamEvent
	json.Unmarshal(last, &end)
	return end.Reason
}

// follow consumes a log on its own goroutine once it holds an event,
// and returns the channel its end reason arrives on.
func follow(log *evlog.Log) <-chan string {
	for lines, _, wait, _ := log.Events(0); len(lines) == 0; lines, _, wait, _ = log.Events(0) {
		<-wait
	}
	got := make(chan string, 1)
	go func() { got <- consume(log) }()
	return got
}

// wantNoProducers fails if a goroutine still runs the harness's item
// code once within has passed; zero checks once. Items leave their own
// code before signalling the WaitGroup Close waits on, so none may be
// left the moment Close returns.
func wantNoProducers(t *testing.T, h harness, within time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(within); ; time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		var left []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, h.producer) {
				left = append(left, g)
			}
		}
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d producer goroutines left:\n%s", len(left), strings.Join(left, "\n\n"))
			return
		}
	}
}
