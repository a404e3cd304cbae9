package faults

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ParsePlan builds a Plan from its compact textual form, the format the
// predata-run --fault-plan flag accepts. A plan is a semicolon-separated
// list of directives:
//
//	crash:EP@DUMP          endpoint EP is dead for dumps >= DUMP
//	transient:EP:PROB[:OP] operation OP (pull|send|recv|any, default any)
//	                       on endpoint EP fails with probability PROB
//	degrade:EP:FROM-TO:F   pulls of dumps FROM..TO from endpoint EP take
//	                       F times longer (TO may be * for open-ended)
//	corrupt:EP:PROB[:OP]   payload byte-flips with probability PROB per
//	                       transfer on endpoint EP; OP selects the site
//	                       (pull = wire, heals on re-pull; send = source,
//	                       stays bad; any = both; default any)
//	partition:A|B@FROM-TO  bidirectional drop between endpoint groups A
//	                       and B (comma-separated ids) for dumps FROM..TO
//	                       (TO may be * for open-ended); both sides stay
//	                       alive — this is a cut, not a crash
//	dup:EP:PROB            control messages to EP are duplicated with
//	                       probability PROB; the copy arrives late, so
//	                       delivery is duplicated and reordered
//	restart:EP@DUMP[:DT]   endpoint EP bounces: down for DT dumps
//	                       (default 1) starting at DUMP, then revives
//	                       with its memory lost — recovery replays the
//	                       write-ahead journal
//	crashall@DUMP          the whole staging service crashes mid-dump
//	                       DUMP and restarts from its journals before
//	                       the dump is reduced (correlated failure)
//
// EP is a fabric endpoint id or * for every endpoint. Example:
//
//	transient:*:0.2;crash:9@1;degrade:3:0-2:4;corrupt:*:0.1:pull;partition:8|9,10@1-2;dup:9:0.3;restart:10@3:1;crashall@4
func ParsePlan(spec string, seed int64) (Plan, error) {
	p := Plan{Seed: seed}
	directives := 0
	for _, dir := range strings.Split(spec, ";") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		directives++
		// crashall is the one colon-free directive: it names no endpoint,
		// the whole service is its scope.
		if rest, found := strings.CutPrefix(dir, "crashall@"); found {
			dump, err := strconv.Atoi(rest)
			if err != nil || dump < 0 {
				return Plan{}, fmt.Errorf("faults: crashall dump %q must be a non-negative integer", rest)
			}
			p.CrashAlls = append(p.CrashAlls, CrashAll{AtDump: dump})
			continue
		}
		kind, rest, ok := strings.Cut(dir, ":")
		if !ok {
			return Plan{}, fmt.Errorf("faults: directive %q missing ':'", dir)
		}
		var err error
		switch kind {
		case "crash":
			err = parseCrash(&p, rest)
		case "transient":
			p.Transients, err = parseRule(p.Transients, kind, rest, transientOps)
		case "degrade":
			err = parseDegrade(&p, rest)
		case "corrupt":
			p.Corrupts, err = parseRule(p.Corrupts, kind, rest, corruptOps)
		case "partition":
			err = parsePartition(&p, rest)
		case "dup":
			p.Dups, err = parseRule(p.Dups, kind, rest, dupOps)
		case "restart":
			err = parseRestart(&p, rest)
		default:
			err = fmt.Errorf("faults: unknown directive %q (want crash|transient|degrade|corrupt|partition|dup|restart|crashall)", kind)
		}
		if err != nil {
			return Plan{}, err
		}
	}
	if directives == 0 {
		// An all-blank spec (empty string, "  ", ";;") is a configuration
		// mistake, not an empty fault load: callers that want no faults
		// pass no plan at all (predata-run only parses a non-empty flag).
		return Plan{}, fmt.Errorf("faults: plan %q contains no directives", spec)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// parseEndpoint accepts an endpoint id or the * wildcard.
func parseEndpoint(s string) (int, error) {
	if s == "*" {
		return AnyEndpoint, nil
	}
	ep, err := strconv.Atoi(s)
	if err != nil || ep < 0 {
		return 0, fmt.Errorf("faults: endpoint %q must be a non-negative id or *", s)
	}
	return ep, nil
}

func parseCrash(p *Plan, rest string) error {
	epStr, dumpStr, ok := strings.Cut(rest, "@")
	if !ok {
		return fmt.Errorf("faults: crash %q wants EP@DUMP", rest)
	}
	ep, err := strconv.Atoi(epStr)
	if err != nil || ep < 0 {
		return fmt.Errorf("faults: crash endpoint %q must be a non-negative id", epStr)
	}
	dump, err := strconv.Atoi(dumpStr)
	if err != nil || dump < 0 {
		return fmt.Errorf("faults: crash dump %q must be a non-negative integer", dumpStr)
	}
	p.Crashes = append(p.Crashes, Crash{Endpoint: ep, AtDump: dump})
	return nil
}

// parseRule reads one rule kind's EP:PROB[:OP] and appends it to rules.
// OP names one of ops and defaults to any; a kind whose only op is any
// (dup) takes no OP field.
func parseRule(rules []Rule, kind, rest string, ops []Op) ([]Rule, error) {
	form, n := "EP:PROB[:OP]", -1
	if len(ops) == 1 {
		form, n = "EP:PROB", 2 // no OP field: everything after EP is PROB
	}
	parts := strings.SplitN(rest, ":", n)
	if len(parts) < 2 || len(parts) > 3 {
		return rules, fmt.Errorf("faults: %s %q wants %s", kind, rest, form)
	}
	ep, err := parseEndpoint(parts[0])
	if err != nil {
		return rules, err
	}
	prob, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return rules, fmt.Errorf("faults: %s probability %q: %v", kind, parts[1], err)
	}
	op := OpAny
	if len(parts) == 3 {
		i := slices.IndexFunc(ops, func(o Op) bool { return o.String() == parts[2] })
		if i < 0 {
			return rules, fmt.Errorf("faults: %s op %q (want %s)", kind, parts[2], opList(ops))
		}
		op = ops[i]
	}
	return append(rules, Rule{Endpoint: ep, Op: op, Prob: prob}), nil
}

// parseWindow reads FROM-TO, where TO may be * for an open-ended window.
func parseWindow(kind, s string) (Window, error) {
	fromStr, toStr, ok := strings.Cut(s, "-")
	if !ok {
		return Window{}, fmt.Errorf("faults: %s window %q wants FROM-TO", kind, s)
	}
	from, err := strconv.Atoi(fromStr)
	if err != nil || from < 0 {
		return Window{}, fmt.Errorf("faults: %s window start %q must be a non-negative integer", kind, fromStr)
	}
	to := -1
	if toStr != "*" {
		to, err = strconv.Atoi(toStr)
		if err != nil || to < from {
			return Window{}, fmt.Errorf("faults: %s window end %q must be >= %d or *", kind, toStr, from)
		}
	}
	return Window{from, to}, nil
}

func parseDegrade(p *Plan, rest string) error {
	parts := strings.Split(rest, ":")
	if len(parts) != 3 {
		return fmt.Errorf("faults: degrade %q wants EP:FROM-TO:FACTOR", rest)
	}
	ep, err := parseEndpoint(parts[0])
	if err != nil {
		return err
	}
	w, err := parseWindow("degrade", parts[1])
	if err != nil {
		return err
	}
	factor, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return fmt.Errorf("faults: degrade factor %q: %v", parts[2], err)
	}
	p.Degrades = append(p.Degrades, Degrade{Endpoint: ep, Window: w, Factor: factor})
	return nil
}

// parseGroup reads a comma-separated list of endpoint ids (one side of
// a partition). The * wildcard is deliberately rejected: a cut needs
// two explicit sides.
func parseGroup(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("faults: partition group is empty (want comma-separated endpoint ids)")
	}
	var g []int
	for _, f := range strings.Split(s, ",") {
		ep, err := strconv.Atoi(f)
		if err != nil || ep < 0 {
			return nil, fmt.Errorf("faults: partition group member %q must be a non-negative endpoint id", f)
		}
		g = append(g, ep)
	}
	return g, nil
}

func parsePartition(p *Plan, rest string) error {
	groups, windowStr, ok := strings.Cut(rest, "@")
	if !ok {
		return fmt.Errorf("faults: partition %q wants A|B@FROM-TO", rest)
	}
	aStr, bStr, ok := strings.Cut(groups, "|")
	if !ok {
		return fmt.Errorf("faults: partition groups %q want A|B (two '|'-separated endpoint lists)", groups)
	}
	a, err := parseGroup(aStr)
	if err != nil {
		return err
	}
	b, err := parseGroup(bStr)
	if err != nil {
		return err
	}
	w, err := parseWindow("partition", windowStr)
	if err != nil {
		return err
	}
	p.Partitions = append(p.Partitions, Partition{GroupA: a, GroupB: b, Window: w})
	return nil
}

func parseRestart(p *Plan, rest string) error {
	epStr, windowStr, ok := strings.Cut(rest, "@")
	if !ok {
		return fmt.Errorf("faults: restart %q wants EP@DUMP[:DOWNTIME]", rest)
	}
	ep, err := strconv.Atoi(epStr)
	if err != nil || ep < 0 {
		return fmt.Errorf("faults: restart endpoint %q must be a non-negative id", epStr)
	}
	dumpStr, dtStr, hasDT := strings.Cut(windowStr, ":")
	dump, err := strconv.Atoi(dumpStr)
	if err != nil || dump < 0 {
		return fmt.Errorf("faults: restart dump %q must be a non-negative integer", dumpStr)
	}
	dt := 1
	if hasDT {
		dt, err = strconv.Atoi(dtStr)
		if err != nil || dt < 1 {
			return fmt.Errorf("faults: restart downtime %q must be a positive dump count", dtStr)
		}
	}
	p.Restarts = append(p.Restarts, Restart{Endpoint: ep, AtDump: dump, Downtime: dt})
	return nil
}

// String renders the plan back into the ParsePlan format (without the
// seed, which rides separately).
func (p Plan) String() string {
	var dirs []string
	epStr := func(ep int) string {
		if ep == AnyEndpoint {
			return "*"
		}
		return strconv.Itoa(ep)
	}
	// rules renders one kind; the OP field is spelled out whenever the
	// kind has one, so parse -> String -> parse is a fixed point.
	rules := func(kind string, rs []Rule, ops []Op) {
		for _, r := range rs {
			d := fmt.Sprintf("%s:%s:%g", kind, epStr(r.Endpoint), r.Prob)
			if len(ops) > 1 {
				d += ":" + r.Op.String()
			}
			dirs = append(dirs, d)
		}
	}
	group := func(g []int) string {
		parts := make([]string, len(g))
		for i, ep := range g {
			parts[i] = strconv.Itoa(ep)
		}
		return strings.Join(parts, ",")
	}
	for _, c := range p.Crashes {
		dirs = append(dirs, fmt.Sprintf("crash:%d@%d", c.Endpoint, c.AtDump))
	}
	rules("transient", p.Transients, transientOps)
	for _, d := range p.Degrades {
		dirs = append(dirs, fmt.Sprintf("degrade:%s:%v:%g", epStr(d.Endpoint), d.Window, d.Factor))
	}
	rules("corrupt", p.Corrupts, corruptOps)
	for _, pt := range p.Partitions {
		dirs = append(dirs, fmt.Sprintf("partition:%s|%s@%v", group(pt.GroupA), group(pt.GroupB), pt.Window))
	}
	rules("dup", p.Dups, dupOps)
	// Downtime renders explicitly so parse -> String -> parse is a
	// fixed point whether or not the input spelled the default.
	for _, r := range p.Restarts {
		dirs = append(dirs, fmt.Sprintf("restart:%d@%d:%d", r.Endpoint, r.AtDump, r.Downtime))
	}
	for _, c := range p.CrashAlls {
		dirs = append(dirs, fmt.Sprintf("crashall@%d", c.AtDump))
	}
	return strings.Join(dirs, ";")
}
