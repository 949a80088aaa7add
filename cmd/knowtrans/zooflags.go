package main

import (
	"flag"
	"strings"

	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
)

// zooFlags are the options of the subcommands that adapt models themselves —
// experiment, build, transfer, serve, job — and so own an eval.Zoo: -scale
// and -seed, -faults where the subcommand takes it, and transfer's -dataset.
type zooFlags struct {
	scale   float64
	seed    int64
	faults  string
	dataset *string // registered by transfer alone
}

func addZooFlags(fs *flag.FlagSet, withFaults bool) *zooFlags {
	zf := &zooFlags{}
	fs.Float64Var(&zf.scale, "scale", 0.15, "dataset scale relative to paper sizes (0,1]")
	fs.Int64Var(&zf.seed, "seed", 1, "master random seed (every artifact and adapter is deterministic in it)")
	if withFaults {
		fs.StringVar(&zf.faults, "faults", "",
			"inject oracle faults during Transfers, `spec` rate=R,seed=S[,kinds=a+b] (chaos testing; see internal/faults)")
	}
	return zf
}

// open returns the zoo the flags describe, nothing built yet, recording into
// what of.start returns with it. The flags are checked first: a value the zoo
// cannot take is an operator mistake, whose exit 2 must leave no 0-byte -trace
// or -cpuprofile behind (generating datasets to look -dataset up records none).
func (zf *zooFlags) open(of *obsFlags, service bool) (*eval.Zoo, *obs.Recorder, func()) {
	if zf.scale <= 0 || zf.scale > 1 {
		mistake("-scale must be in (0, 1], got %v", zf.scale)
	}
	z := eval.NewZoo(zf.seed, zf.scale)
	if zf.faults != "" {
		fcfg, err := faults.ParseSpec(zf.faults)
		if err != nil {
			mistake("%v", err)
		}
		z.Faults = &fcfg
	}
	if zf.dataset != nil {
		if _, ok := z.FindDownstream(*zf.dataset); !ok {
			mistake("unknown dataset %q; valid keys:\n  %s", *zf.dataset, strings.Join(z.DownstreamKeys(), "\n  "))
		}
	}
	rec, finish := of.start(service)
	z.Rec = rec
	return z, rec, finish
}
