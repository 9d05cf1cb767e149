package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"tocttou/internal/campaignd"
)

// The one campaign driver. The end-to-end runs reach tocttoud over
// loopback and the traced run an in-process campaignd.Server; both
// submit, stream, fetch the report, resubmit and read /v1/stats through
// this code, with the same checks.

// expect is what a campaign's outputs are checked against: the spec
// submitted, its reference report and its number of points.
type expect struct {
	spec, ref []byte
	points    int
}

// driver drives one campaignd client. op counts an operation (false on
// a failed one). call, when set, runs each client call — the traced run
// opens a span around it — and returns its duration.
type driver struct {
	c    *campaignd.Client
	op   func(what string, err error) bool
	call func(what string, fn func() error) (time.Duration, error)
}

func (d *driver) do(what string, fn func() error) (time.Duration, error) {
	if d.call != nil {
		return d.call(what, fn)
	}
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// campaignRun is one campaign as its client saw it.
type campaignRun struct {
	id             string
	submit, report time.Duration // the Submit and Report calls
	total          time.Duration // submit → checked report in hand
	firstPoint     time.Duration // submit → first streamed point
	gapsMS         []float64     // between consecutive streamed points
}

// campaign submits the spec, streams every point and fetches the report.
// It checks that the submit is not a cache hit, that every point streams
// exactly once, that the campaign ends done with the spec's assertions
// passing, and that the report equals the reference byte for byte.
func (d *driver) campaign(want *expect) (*campaignRun, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	r := &campaignRun{}
	t0 := time.Now()

	var info campaignd.JobInfo
	var err error
	r.submit, err = d.do("campaignd.Client.Submit", func() (err error) {
		info, err = d.c.Submit("spec.yaml", want.spec)
		if err == nil && info.Cached {
			err = fmt.Errorf("fresh submit answered from the cache")
		}
		return err
	})
	if !d.op("submit", err) {
		return nil, false
	}
	r.id = info.ID

	var arrivals []time.Time
	_, err = d.do("campaignd.Client.Stream", func() error {
		seen := make([]bool, want.points)
		var streamErr error
		last := 0
		end, err := d.c.Stream(ctx, info.ID, &last, func(ev campaignd.PointEvent) {
			arrivals = append(arrivals, time.Now())
			switch {
			case ev.Point < 0 || ev.Point >= want.points:
				streamErr = fmt.Errorf("point %d out of range", ev.Point)
			case seen[ev.Point]:
				streamErr = fmt.Errorf("point %d streamed twice", ev.Point)
			default:
				seen[ev.Point] = true
			}
		})
		switch {
		case err != nil:
			return err
		case streamErr != nil:
			return streamErr
		case end.State != campaignd.StateDone:
			return fmt.Errorf("campaign ended %s: %s", end.State, end.Error)
		case end.AssertionFailure != "":
			return fmt.Errorf("spec assertion failed: %s", end.AssertionFailure)
		case len(arrivals) != want.points:
			return fmt.Errorf("streamed %d of %d points", len(arrivals), want.points)
		}
		return nil
	})
	if !d.op("stream", err) {
		return nil, false
	}

	r.report, err = d.do("campaignd.Client.Report", func() error {
		got, err := d.c.Report(info.ID)
		if err == nil && !bytes.Equal(got, want.ref) {
			err = fmt.Errorf("report differs from the in-process reference (%d vs %d bytes)", len(got), len(want.ref))
		}
		return err
	})
	if !d.op("report", err) {
		return nil, false
	}
	r.total = time.Since(t0)
	r.firstPoint = arrivals[0].Sub(t0)
	for i := 1; i < len(arrivals); i++ {
		r.gapsMS = append(r.gapsMS, ms(arrivals[i].Sub(arrivals[i-1])))
	}
	return r, true
}

// resubmits makes n closed-loop resubmits of the finished campaign's
// spec, each of which must return its id with cached: true, and returns
// the latencies of those that passed, in ms.
func (d *driver) resubmits(want *expect, id string, n int) ([]float64, bool) {
	ok := true
	var lat []float64
	for i := 0; i < n; i++ {
		t, err := d.do("campaignd.Client.Submit/cached", func() error {
			again, err := d.c.Submit("spec.yaml", want.spec)
			if err == nil && (again.ID != id || !again.Cached) {
				err = fmt.Errorf("resubmit returned id %s cached=%v, want %s cached=true", again.ID, again.Cached, id)
			}
			return err
		})
		if d.op("resubmit", err) {
			lat = append(lat, ms(t))
		} else {
			ok = false
		}
	}
	return lat, ok
}

// stats reads /v1/stats and checks that the run needed no worker
// restart, requeued no lease and quarantined no point.
func (d *driver) stats() (campaignd.Stats, bool) {
	var st campaignd.Stats
	_, err := d.do("GET /v1/stats", func() error {
		resp, err := d.c.HTTP.Get(d.c.Server + "/v1/stats")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/v1/stats: %s", resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return err
		}
		if st.WorkerRestarts != 0 || st.LeasesRequeued != 0 || st.PointsQuarantined != 0 {
			return fmt.Errorf("/v1/stats shows %d restarts, %d requeued leases, %d quarantined points",
				st.WorkerRestarts, st.LeasesRequeued, st.PointsQuarantined)
		}
		return nil
	})
	return st, d.op("stats", err)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
