package ldapd

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
)

// DumpLDIF writes every entry in the tree in LDIF form, parents before
// children, attributes sorted, suitable for fixtures and debugging.
func (d *Dir) DumpLDIF(w io.Writer) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var dns []string
	var walk func(p string)
	walk = func(p string) {
		kids := append([]string(nil), d.children[p]...)
		sort.Strings(kids)
		for _, c := range kids {
			dns = append(dns, c)
			walk(c)
		}
	}
	walk("")
	for _, dn := range dns {
		e := d.entries[dn]
		if _, err := fmt.Fprintf(w, "dn: %s\n", e.DN); err != nil {
			return err
		}
		for _, a := range slices.Sorted(maps.Keys(e.Attrs)) {
			for _, v := range e.Attrs[a] {
				if _, err := fmt.Fprintf(w, "%s: %s\n", a, v); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// LoadLDIF reads LDIF records (dn line followed by attr lines, blank-line
// separated; '#' comments ignored) and adds each as an entry.
func (d *Dir) LoadLDIF(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var dn string
	attrs := map[string][]string{}
	flush := func() error {
		if dn == "" {
			return nil
		}
		err := d.Add(dn, attrs)
		dn = ""
		attrs = map[string][]string{}
		return err
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.TrimSpace(line) == "" {
			if err := flush(); err != nil {
				return fmt.Errorf("ldif line %d: %w", lineNo, err)
			}
			continue
		}
		i := strings.Index(line, ":")
		if i <= 0 {
			return fmt.Errorf("ldif line %d: %w: %q", lineNo, ErrBadDN, line)
		}
		key := strings.TrimSpace(line[:i])
		val := strings.TrimSpace(line[i+1:])
		if strings.EqualFold(key, "dn") {
			if err := flush(); err != nil {
				return fmt.Errorf("ldif line %d: %w", lineNo, err)
			}
			dn = val
			continue
		}
		if dn == "" {
			return fmt.Errorf("ldif line %d: attribute before dn", lineNo)
		}
		attrs[strings.ToLower(key)] = append(attrs[strings.ToLower(key)], val)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}
