package main

import "testing"

func TestRunCampaignAgainstBackend(t *testing.T) {
	srv := newNode(t)
	report := load(t, options{workload: "campaign", addr: srv.URL, mix: "K8/pc", n: 4, c: 2, programs: 2})
	wantLines(t, report,
		"campaigns:   4 (0 failed, 0 ended early)",
		"programs:    8 swept, 0 findings",
		"determinism: 2 distinct configs, all paired streams identical")
}

// TestRunCampaignAtDefaults runs the flag defaults (-n 6, -c 8) against
// a node at its default limit of 4 campaigns: every campaign must be
// admitted, none refused with 503.
func TestRunCampaignAtDefaults(t *testing.T) {
	srv := newNode(t)
	report := load(t, options{workload: "campaign", addr: srv.URL, mix: "K8/pc", n: 6, c: 8, programs: 1})
	wantLines(t, report, "campaigns:   6 (0 failed, 0 ended early)")
}

func TestRunCampaignRoundsToPairs(t *testing.T) {
	srv := newNode(t)
	report := load(t, options{workload: "campaign", addr: srv.URL, mix: "K8/pc", n: 3, c: 2, programs: 2})
	wantLines(t, report, "campaigns:   4 ")
}

func TestRunCampaignRejectsBadFlags(t *testing.T) {
	base := options{workload: "campaign", addr: "http://x", mix: "K8/pc", n: 4, c: 2, programs: 2}
	for why, edit := range map[string]func(*options){
		"-c 0":        func(o *options) { o.c = 0 },
		"-n 0":        func(o *options) { o.n = 0 },
		"-programs 0": func(o *options) { o.programs = 0 },
		"bad mix":     func(o *options) { o.mix = "garbage" },
	} {
		o := base
		edit(&o)
		rejects(t, why, o)
	}
}
