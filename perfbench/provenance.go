package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// provenance is stamped on every report at run time, so a report can
// only carry the commit it was measured on.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`      // vcs.revision from the build, or "unknown"
	Dirty      string  `json:"dirty"`       // vcs.modified from the build, or "unknown"
	SourceHash string  `json:"source_hash"` // sha256 over the checkout's Go sources
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Started    string  `json:"started"`
}

func takeProvenance(opt options) provenance {
	p := provenance{
		Workload:   opt.workload,
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Commit:     "unknown",
		Dirty:      "unknown",
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     "unknown",
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	// The go command stamps the revision when it builds inside a git
	// work tree; a checkout without .git carries only the source hash.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value
			}
		}
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(rel))
	}
	return p
}

// sourceHash digests every go.mod and .go file under root (skipping
// build output and VCS directories) with its path, or returns
// "unknown" if the tree cannot be read.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
