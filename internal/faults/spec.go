package faults

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// ParseSpec parses the compact fault spec the CLI's -faults flag accepts:
//
//	rate=0.3,seed=9[,kinds=timeout+empty+malformed]
//
// Keys may appear in any order; unknown keys and out-of-range values are
// errors. kinds is a +-separated subset of AllKinds (omit for all). rate=0
// is valid and useful: the whole resilience chain is exercised with zero
// injections, which must leave every result byte-identical to an unwrapped
// run.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	seenRate := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: bad spec element %q (want key=value)", part)
		}
		switch key {
		case "rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || !(r >= 0 && r <= 1) { // NaN parses, and compares false both ways
				return Config{}, fmt.Errorf("faults: rate %q must be a number in [0,1]", val)
			}
			cfg.Rate = r
			seenRate = true
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("faults: bad seed %q", val)
			}
			cfg.Seed = s
		case "kinds":
			for _, k := range strings.Split(val, "+") {
				kind, err := parseKind(k)
				if err != nil {
					return Config{}, err
				}
				cfg.Kinds = append(cfg.Kinds, kind)
			}
		default:
			return Config{}, fmt.Errorf("faults: unknown spec key %q", key)
		}
	}
	if !seenRate {
		return Config{}, fmt.Errorf("faults: spec %q needs rate=<0..1>", spec)
	}
	return cfg, nil
}

func parseKind(s string) (Kind, error) {
	for _, k := range AllKinds {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("faults: unknown fault kind %q (valid: %s)", s, kindList())
}

func kindList() string {
	names := make([]string, len(AllKinds))
	for i, k := range AllKinds {
		names[i] = string(k)
	}
	return strings.Join(names, ", ")
}

// DeriveSeed folds a per-cell seed into the spec's base seed, so every
// experiment cell gets its own deterministic fault schedule that is
// independent of worker scheduling — the same construction the eval
// harness uses for few-shot sampling (content-addressed, never
// order-addressed).
func DeriveSeed(base, cell int64) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "faults|%d|%d", base, cell)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}
