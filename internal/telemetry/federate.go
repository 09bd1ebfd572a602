package telemetry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the exposition format: a parser for the
// Prometheus text format the Expo writer emits, and a Merger that folds
// many nodes' expositions into one fleet view (GET /cluster/metrics on
// pcfront). The merge rules mirror what a federating Prometheus would
// compute: counters, histograms, and untyped samples sum across nodes
// by sample name and label set; gauges are point-in-time per-node facts,
// so they keep one child per node distinguished by a "backend" label.

// ParsedSample is one sample line: the full sample name (including any
// _bucket/_sum/_count suffix), its labels in order, and the value.
type ParsedSample struct {
	Name   string
	Labels []Annotation
	Value  float64
}

// ParsedFamily is one metric family reassembled from HELP/TYPE headers
// and the sample lines attributed to it.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []ParsedSample
}

// ParseExposition reads Prometheus text exposition (version 0.0.4) and
// returns its families in first-seen order. Sample lines are attributed
// to the family whose declared name matches the sample name exactly or
// after stripping a histogram suffix; undeclared samples get an untyped
// family of their own.
func ParseExposition(r io.Reader) ([]ParsedFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var fams []ParsedFamily
	byName := make(map[string]int)
	family := func(name string) *ParsedFamily {
		if i, ok := byName[name]; ok {
			return &fams[i]
		}
		byName[name] = len(fams)
		fams = append(fams, ParsedFamily{Name: name, Type: "untyped"})
		return &fams[len(fams)-1]
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) >= 3 {
				switch parts[1] {
				case "HELP":
					f := family(parts[2])
					if len(parts) == 4 {
						f.Help = unescapeHelp(parts[3])
					}
				case "TYPE":
					if len(parts) >= 4 {
						family(parts[2]).Type = parts[3]
					}
				}
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", lineNo, err)
		}
		name := s.Name
		if _, ok := byName[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, found := strings.CutSuffix(s.Name, suffix); found {
					if _, ok := byName[base]; ok {
						name = base
						break
					}
				}
			}
		}
		f := family(name)
		f.Samples = append(f.Samples, s)
	}
	return fams, sc.Err()
}

// LintExposition checks a text exposition the way a strict scraper
// reads it, line by line: every sample's family must be declared by a
// HELP and a TYPE line before the sample, no family may be typed twice,
// and the only comments are HELP and TYPE. A _bucket, _sum, or _count
// sample belongs to its base family only when that family is a
// histogram. It reports every violation, joined, or nil for a clean
// exposition. Tests and tooling call it; the serving path never does.
func LintExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	help := make(map[string]bool)
	typ := make(map[string]string)
	var problems []error
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP ") && len(fields) >= 3:
			help[fields[2]] = true
		case strings.HasPrefix(line, "# TYPE ") && len(fields) == 4:
			if _, dup := typ[fields[2]]; dup {
				problems = append(problems, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, fields[2]))
			}
			typ[fields[2]] = fields[3]
		case strings.HasPrefix(line, "#"):
			problems = append(problems, fmt.Errorf("line %d: unrecognized comment %q", lineNo, line))
		default:
			s, err := parseSampleLine(line)
			if err != nil {
				problems = append(problems, fmt.Errorf("line %d: %w", lineNo, err))
				continue
			}
			family := s.Name
			if _, ok := typ[family]; !ok {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					if base, found := strings.CutSuffix(s.Name, suffix); found && typ[base] == "histogram" {
						family = base
					}
				}
			}
			if !help[family] || typ[family] == "" {
				problems = append(problems, fmt.Errorf("line %d: sample %s: family %s missing HELP or TYPE", lineNo, s.Name, family))
			}
		}
	}
	return errors.Join(append(problems, sc.Err())...)
}

// parseSampleLine splits "name{k="v",...} value [timestamp]" into its
// parts, honoring the label-value escapes the writer produces.
func parseSampleLine(line string) (ParsedSample, error) {
	var s ParsedSample
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return s, errors.New("malformed sample line")
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest[1:])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, errors.New("sample line has no value")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q", fields[0])
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes `key="value",...}` (the leading '{' already
// eaten) and returns the pairs plus the unconsumed tail.
func parseLabels(s string) ([]Annotation, string, error) {
	var out []Annotation
	for {
		s = strings.TrimLeft(s, " \t,")
		if s == "" {
			return nil, "", errors.New("unterminated label set")
		}
		if s[0] == '}' {
			return out, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, "", errors.New("malformed label pair")
		}
		key := strings.TrimSpace(s[:eq])
		var b strings.Builder
		i := eq + 2
	scan:
		for {
			if i >= len(s) {
				return nil, "", errors.New("unterminated label value")
			}
			switch c := s[i]; c {
			case '\\':
				if i+1 >= len(s) {
					return nil, "", errors.New("dangling escape in label value")
				}
				switch s[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					// Unknown escape: keep it verbatim, like Prometheus.
					b.WriteByte('\\')
					b.WriteByte(s[i+1])
				}
				i += 2
			case '"':
				i++
				break scan
			default:
				b.WriteByte(c)
				i++
			}
		}
		out = append(out, Annotation{Key: key, Value: b.String()})
		s = s[i:]
	}
}

// unescapeLabel inverts escapeLabel. Exposed for tests asserting the
// round-trip; parseLabels unescapes inline while scanning.
func unescapeLabel(s string) string {
	r := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	return r.Replace(s)
}

// unescapeHelp inverts escapeHelp.
func unescapeHelp(s string) string {
	r := strings.NewReplacer(`\\`, `\`, `\n`, "\n")
	return r.Replace(s)
}

// Merger folds parsed expositions from multiple backends into one.
// Family and sample order is first-seen across Add calls, so scraping
// backends in ring order yields a stable merged document.
type Merger struct {
	order []string
	fams  map[string]*mergedFamily
}

type mergedFamily struct {
	name, help, typ string
	order           []string
	samples         map[string]*mergedSample
}

type mergedSample struct {
	name   string
	labels []Annotation
	value  float64
}

// NewMerger returns an empty merger.
func NewMerger() *Merger {
	return &Merger{fams: make(map[string]*mergedFamily)}
}

// Add folds one backend's families into the merge. Counter, histogram,
// and untyped samples accumulate by (sample name, label set); gauge
// samples gain a backend label and stay per-node.
func (m *Merger) Add(backend string, fams []ParsedFamily) {
	for fi := range fams {
		pf := &fams[fi]
		f, ok := m.fams[pf.Name]
		if !ok {
			f = &mergedFamily{
				name: pf.Name, help: pf.Help, typ: pf.Type,
				samples: make(map[string]*mergedSample),
			}
			m.fams[pf.Name] = f
			m.order = append(m.order, pf.Name)
		}
		for _, s := range pf.Samples {
			labels := s.Labels
			if pf.Type == "gauge" {
				labels = append(append(make([]Annotation, 0, len(labels)+1), labels...),
					Annotation{Key: "backend", Value: backend})
			}
			key := sampleKey(s.Name, labels)
			ms, ok := f.samples[key]
			if !ok {
				ms = &mergedSample{name: s.Name, labels: labels}
				f.samples[key] = ms
				f.order = append(f.order, key)
			}
			ms.value += s.Value
		}
	}
}

// Write renders the merged exposition onto e.
func (m *Merger) Write(e *Expo) {
	for _, name := range m.order {
		f := m.fams[name]
		e.Family(f.name, f.help, f.typ)
		for _, key := range f.order {
			s := f.samples[key]
			e.NamedSample(s.name, s.value, s.labels...)
		}
	}
}

// sampleKey identifies a sample by name and label set, order-blind on
// labels so differently ordered but equal sets merge.
func sampleKey(name string, labels []Annotation) string {
	ps := make([]string, len(labels))
	for i, l := range labels {
		ps[i] = l.Key + "\x00" + l.Value
	}
	sort.Strings(ps)
	return name + "\x01" + strings.Join(ps, "\x02")
}
