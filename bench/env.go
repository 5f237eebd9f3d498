package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded beside the numbers so a surprising result can
// be told from a busy or differently shaped machine.
type environment struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Tokens       int     `json:"tokens"`
	K            int     `json:"k"`
	Samples      int     `json:"samples"`
	Chains       int     `json:"chains"`
	WarmupRounds int     `json:"warmup_rounds"`
	Rounds       int     `json:"measured_rounds"`
	LoadStart    string  `json:"loadavg_start"`
	LoadEnd      string  `json:"loadavg_end"`
}

func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// warnIfBusy complains on stderr when the 1-minute load average exceeds
// half the processors: timings taken then are not worth comparing.
func warnIfBusy(when, avg string, nproc int) {
	f := strings.Fields(avg)
	if len(f) == 0 {
		return
	}
	if one, err := strconv.ParseFloat(f[0], 64); err == nil && one > float64(nproc)/2 {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-min load average %.2f at %s exceeds half of %d processors; timings will be noisy\n",
			one, when, nproc)
	}
}

func captureEnv(cfg *runConfig) environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Tokens:     cfg.Scale.Tokens,
		K:          cfg.Scale.K,
		Samples:    cfg.Scale.Samples,
		Chains:     cfg.Scale.Chains,
		LoadStart:  loadavg(),
	}
	warnIfBusy("start", e.LoadStart, e.NProc)
	return e
}

func (e *environment) finish(rounds, warmup int) {
	e.Rounds, e.WarmupRounds = rounds, warmup
	e.LoadEnd = loadavg()
	warnIfBusy("end", e.LoadEnd, e.NProc)
}
