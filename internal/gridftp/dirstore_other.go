//go:build !linux || arm

package gridftp

import (
	"os"
	"syscall"
)

// No write-behind hint and no deferred reclaim here: there is no
// sync_file_range to call, and Windows cannot rename onto an open file.

func writeBehind(syscall.RawConn, int64, int64) {}

func holdReplaced(string) *os.File { return nil }
