package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuLayers are the packages whose flat CPU share is reported as
// cpu.<layer>; routing folds its five protocol packages together, and
// math folds its sub-packages. Everything else lands in cpu.other.
var cpuLayers = []string{
	"sim", "mobility", "geom", "channel", "mac", "network", "routing",
	"traffic", "packet", "metrics", "timeseries", "obs", "math", "runtime",
}

// profile is a CPU profile the benchmark takes of itself.
type profile struct {
	path string
	f    *os.File
}

func startProfile(dir string) (*profile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

// stop ends the profile and returns the flat CPU share of each layer,
// from `go tool pprof -top`, keyed by cpuLayers entries and "other".
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	defer os.Remove(p.path)
	out, err := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return layerShares(out)
}

// layerShares sums the flat column of `pprof -top` output by layer and
// divides by the total.
func layerShares(top []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(top))
	header := true
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if header {
			header = len(fields) == 0 || fields[0] != "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		flat[layerOf(fields[5])] += v
		total += v
	}
	if total == 0 {
		return map[string]float64{}, nil // too short to hold a sample: every share reads 0
	}
	for k := range flat {
		flat[k] /= total
	}
	return flat, nil
}

// layerOf maps a symbol such as "rica/internal/routing/rica.(*Agent).HandleControl"
// or "math.archExp" to its layer.
func layerOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return "other"
	}
	pkg := sym[:slash+1+dot]
	switch {
	case strings.HasPrefix(pkg, "rica/internal/routing"):
		return "routing"
	case strings.HasPrefix(pkg, "rica/internal/"):
		name := strings.TrimPrefix(pkg, "rica/internal/")
		for _, l := range cpuLayers {
			if name == l {
				return l
			}
		}
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
