package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Process hygiene. Every program under test starts in its own process
// group, and the benchmark is a child subreaper, so a tocttoud that dies
// before reaping its -worker children hands them to the benchmark
// instead of init. reapGroup kills whatever is left of a group and
// reaps it before the next run starts.

const prSetChildSubreaper = 36 // PR_SET_CHILD_SUBREAPER from <linux/prctl.h>

func becomeSubreaper() error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", errno)
	}
	return nil
}

// startGroup starts cmd as the leader of a new process group.
func startGroup(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	return cmd.Start()
}

// reapGroup SIGKILLs every process left in the group led by pgid and
// reaps the orphans handed to the benchmark, waiting until the group is
// empty. The group leader itself must already have been waited for.
func reapGroup(pgid int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := syscall.Kill(-pgid, syscall.SIGKILL)
		if errors.Is(err, syscall.ESRCH) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("killing process group %d: %w", pgid, err)
		}
		// Reap zombies reparented to us; none of our own tracked
		// children are running while a group is being torn down.
		for {
			var ws syscall.WaitStatus
			pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil)
			if pid <= 0 || err != nil {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("process group %d still alive after SIGKILL", pgid)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// usage is the resource use the kernel reports for a waited-for child:
// its own and that of every descendant it reaped before exiting.
type usage struct {
	CPU      time.Duration // user + system
	MaxRSSMB float64       // the largest max-RSS among those processes
}

func usageOf(ps *os.ProcessState) usage {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{CPU: ps.UserTime() + ps.SystemTime()}
	}
	return usage{
		CPU:      time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)),
		MaxRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// procCPU is the user+system time of a running process and of every
// child it has reaped, from /proc/<pid>/stat (clock ticks of 10ms).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, from field 3 (state):
	// utime, stime, cutime and cstime are fields 14 to 17.
	i := bytes.LastIndexByte(data, ')')
	var f []string
	if i >= 0 {
		f = strings.Fields(string(data[i+1:]))
	}
	if len(f) < 15 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, s := range f[11:15] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * (time.Second / userHZ), nil
}

// userHZ is the unit of /proc's CPU times on Linux.
const userHZ = 100

// selfCPU is the calling process's own user+system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// fsName names the filesystem holding path, from its statfs magic.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
