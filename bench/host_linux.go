package main

import (
	"fmt"
	"os/exec"
	"syscall"
)

// fsName names the filesystem that holds path, by its statfs magic.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown filesystem (" + err.Error() + ")"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("filesystem type %#x", uint32(st.Type))
}

// dieWithParent makes the kernel kill the child if this process dies first,
// so even a SIGKILL of the benchmark leaves no mirrord behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
