package gridftp

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzControlChannel throws arbitrary bytes at every pure parsing
// surface of the control channel: the command splitter, the ERET
// extent-list grammar, the OPTS option grammar, the numeric argument
// parsers, and the client-side reply parser. Nothing here may panic,
// and a successfully parsed extent list must survive a format/parse
// round trip unchanged.
func FuzzControlChannel(f *testing.F) {
	for _, seed := range []string{
		"RETR pcm-00.nc",
		"ERET 0:1048576,2097152:1048576 pcm-00.nc",
		"OPTS RETR Parallelism=4;",
		"OPTS CHANNELS Cache=on",
		"SBUF 1048576",
		"ALLO 2147483648",
		"REST 1048576",
		"AUTH GSI",
		"TRID 7.3",
		"quit",
		"",
		" leading space",
		"226 Transfer complete",
		"213-Extensions supported:\r\n SIZE\r\n213 END",
		"999999999999999999999999:1",
		"0:-1",
		"-1:5",
		"0:1,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		cmd, arg := splitCommand([]byte(line))
		if cmd != strings.ToUpper(cmd) {
			t.Fatalf("splitCommand(%q) verb %q not upper-cased", line, cmd)
		}
		if want := strings.ToUpper(strings.SplitN(line, " ", 2)[0]); cmd != want {
			t.Fatalf("splitCommand(%q) verb %q, want %q", line, cmd, want)
		}
		switch cmd {
		case "ERET":
			if i := strings.IndexByte(string(arg), ' '); i >= 0 {
				ParseRanges(string(arg[:i]))
			}
		case "OPTS":
			if set, err := parseOpts(arg); err == nil && set.parallelism != 0 {
				if set.parallelism < 1 || set.parallelism > 64 {
					t.Fatalf("parseOpts(%q) accepted parallelism %d", arg, set.parallelism)
				}
			}
		case "SBUF", "ALLO", "REST":
			strconv.ParseInt(string(arg), 10, 64)
		}

		// Every accepted extent list must round-trip bit-exactly.
		if rs, err := ParseRanges(line); err == nil {
			for _, r := range rs {
				if r.Off < 0 || r.Len <= 0 {
					t.Fatalf("ParseRanges(%q) accepted bad extent %+v", line, r)
				}
			}
			again, err := ParseRanges(FormatRanges(rs))
			if err != nil {
				t.Fatalf("round trip of %q failed: %v", line, err)
			}
			if len(again) != len(rs) {
				t.Fatalf("round trip of %q changed length", line)
			}
			for i := range rs {
				if rs[i] != again[i] {
					t.Fatalf("round trip of %q changed extent %d: %+v vs %+v", line, i, rs[i], again[i])
				}
			}
		}

		// The same bytes as a server reply stream must parse or error,
		// never panic or loop.
		c := newCtrl(readerConn{r: strings.NewReader(line + "\r\n")})
		if r, err := c.readResponse(); err == nil {
			if r.Code < 0 || r.Code > 999 {
				t.Fatalf("readResponse(%q) code %d out of range", line, r.Code)
			}
		}
	})
}
