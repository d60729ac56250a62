package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/hostinfo"
)

// hostMeta is the run metadata every result carries, so a figure can be
// read next to the machine, toolchain and source it was measured with.
type hostMeta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func collectHost(root string) hostMeta {
	return hostMeta{
		NProc:      hostinfo.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   hostinfo.CPUModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
	}
}

// gitCommit is the checked-out commit, or "unknown" outside a git checkout.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root (build
// outputs excluded). It identifies the measured code where no commit id is
// available.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
