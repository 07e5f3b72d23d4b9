package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment is written with every result: a number without it cannot
// be compared with one from another machine.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	ScratchFS  string `json:"scratch_fs"`
	Network    string `json:"network"`
}

func (e environment) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q kernel=%s commit=%s scratch_fs=%s net=%s",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Kernel, e.Commit, e.ScratchFS, e.Network)
}

func readEnvironment(scratch string) environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     kernelRelease(),
		Commit:     gitCommit(),
		ScratchFS:  fsType(scratch),
		Network:    "loopback",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitCommit reads HEAD from ./.git without running git; the driver's
// checkout is not a repository, and there the commit is unknown.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsType names the filesystem under dir (or its nearest existing
// parent): the tcp workloads' DirStore roots live there.
func fsType(dir string) string {
	var st syscall.Statfs_t
	for {
		if err := syscall.Statfs(dir, &st); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
