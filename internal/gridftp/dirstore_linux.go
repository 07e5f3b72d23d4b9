//go:build !arm

// (linux/arm is the one Linux port whose syscall package has no
// SyncFileRange; it takes dirstore_other.go.)

package gridftp

import (
	"os"
	"syscall"
)

// SYNC_FILE_RANGE_WRITE: start write-back of the dirty pages in the
// range, wait for nothing.
const syncFileRangeWrite = 0x2

// writeBehind asks the kernel to start writing [off, off+n) of the file
// behind rc to disk now, so that the Sync in Complete finds little left
// to write. It is a hint: on a filesystem that does not support it, or
// on a file already closed, it does nothing, and Complete's Sync still
// makes the whole file durable.
func writeBehind(rc syscall.RawConn, off, n int64) {
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
	})
}

// holdReplaced opens the regular file at path, or returns nil. A rename
// over path then unlinks that file without freeing it: its blocks and
// cached pages go when the returned descriptor is closed. Only a regular
// file has anything worth deferring, and opening a FIFO or a device can
// block.
func holdReplaced(path string) *os.File {
	if fi, err := os.Lstat(path); err != nil || !fi.Mode().IsRegular() {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	return f
}
