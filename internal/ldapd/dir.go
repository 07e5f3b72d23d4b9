// Package ldapd is the in-process directory service standing in for the
// LDAP servers the ESG prototype used for its catalogs (§3, §6.2) and for
// the MDS information service (§5, §6). It provides a hierarchical
// directory information tree of DN-addressed entries with multi-valued
// attributes, RFC 4515-style search filters, LDIF import/export, and a
// network server/client speaking a framed protocol over any transport.
//
// Substitution (DESIGN.md §1): the BER wire encoding of real LDAP is
// irrelevant to the paper's behaviour; the catalogs need hierarchy +
// attribute search + remote access, all of which are preserved.
package ldapd

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Scope selects how much of the tree a search visits.
type Scope int

// Search scopes, mirroring LDAP.
const (
	ScopeBase Scope = iota // the base entry only
	ScopeOne               // immediate children of the base
	ScopeSub               // the base and all descendants
)

// Errors returned by directory operations.
var (
	ErrNoSuchEntry   = errors.New("ldapd: no such entry")
	ErrEntryExists   = errors.New("ldapd: entry already exists")
	ErrNotLeaf       = errors.New("ldapd: entry has children")
	ErrNoSuchParent  = errors.New("ldapd: parent entry does not exist")
	ErrBadDN         = errors.New("ldapd: malformed DN")
	ErrBadFilter     = errors.New("ldapd: malformed filter")
	ErrNoSuchAttr    = errors.New("ldapd: no such attribute")
	errValueNotFound = errors.New("ldapd: value not found")
)

// Entry is one directory object.
type Entry struct {
	DN    string
	Attrs map[string][]string
}

// Get returns the first value of attr ("" if absent).
func (e *Entry) Get(attr string) string {
	vs := e.Attrs[strings.ToLower(attr)]
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// GetAll returns all values of attr.
func (e *Entry) GetAll(attr string) []string { return e.Attrs[strings.ToLower(attr)] }

// clone deep-copies the entry.
func (e *Entry) clone() *Entry {
	c := &Entry{DN: e.DN, Attrs: make(map[string][]string, len(e.Attrs))}
	for k, v := range e.Attrs {
		c.Attrs[k] = append([]string(nil), v...)
	}
	return c
}

// ModOp is a modification operator.
type ModOp int

// Modification operators, mirroring LDAP modify semantics.
const (
	ModAdd ModOp = iota
	ModReplace
	ModDelete
)

// Mod is one attribute modification.
type Mod struct {
	Op     ModOp
	Attr   string
	Values []string
}

// Dir is an in-memory directory information tree, safe for concurrent use.
type Dir struct {
	mu       sync.RWMutex
	entries  map[string]*Entry   // normalized DN -> entry
	children map[string][]string // normalized parent DN -> normalized child DNs
}

// NewDir returns an empty tree.
func NewDir() *Dir {
	return &Dir{entries: map[string]*Entry{}, children: map[string][]string{}}
}

// NormalizeDN canonicalizes a DN: trims space around RDNs, lowercases
// attribute names, preserves value case.
func NormalizeDN(dn string) (string, error) {
	if strings.TrimSpace(dn) == "" {
		return "", nil // root
	}
	parts := strings.Split(dn, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		i := strings.IndexByte(p, '=')
		if i <= 0 || i == len(p)-1 {
			return "", fmt.Errorf("%w: %q", ErrBadDN, dn)
		}
		out = append(out, strings.ToLower(p[:i])+"="+p[i+1:])
	}
	return strings.Join(out, ","), nil
}

// ParentDN returns the parent of a normalized DN ("" for top level).
func ParentDN(dn string) string {
	if i := strings.IndexByte(dn, ','); i >= 0 {
		return dn[i+1:]
	}
	return ""
}

// normAttrs lowercases attribute names.
func normAttrs(attrs map[string][]string) map[string][]string {
	out := make(map[string][]string, len(attrs))
	for k, v := range attrs {
		out[strings.ToLower(k)] = append([]string(nil), v...)
	}
	return out
}

// Add inserts an entry. Every ancestor except the top level must exist.
func (d *Dir) Add(dn string, attrs map[string][]string) error {
	ndn, err := NormalizeDN(dn)
	if err != nil {
		return err
	}
	if ndn == "" {
		return fmt.Errorf("%w: empty DN", ErrBadDN)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.entries[ndn]; dup {
		return fmt.Errorf("%w: %s", ErrEntryExists, ndn)
	}
	parent := ParentDN(ndn)
	if parent != "" {
		if _, ok := d.entries[parent]; !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchParent, parent)
		}
	}
	d.entries[ndn] = &Entry{DN: ndn, Attrs: normAttrs(attrs)}
	d.children[parent] = append(d.children[parent], ndn)
	return nil
}

// Modify applies mods to an entry in order; it fails atomically (no
// partial application) if any mod is invalid.
func (d *Dir) Modify(dn string, mods []Mod) error {
	ndn, err := NormalizeDN(dn)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[ndn]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchEntry, ndn)
	}
	work := e.clone()
	for _, m := range mods {
		attr := strings.ToLower(m.Attr)
		switch m.Op {
		case ModAdd:
			work.Attrs[attr] = append(work.Attrs[attr], m.Values...)
		case ModReplace:
			if len(m.Values) == 0 {
				delete(work.Attrs, attr)
			} else {
				work.Attrs[attr] = append([]string(nil), m.Values...)
			}
		case ModDelete:
			if len(m.Values) == 0 {
				if _, ok := work.Attrs[attr]; !ok {
					return fmt.Errorf("%w: %s", ErrNoSuchAttr, attr)
				}
				delete(work.Attrs, attr)
				continue
			}
			for _, v := range m.Values {
				vs := work.Attrs[attr]
				i := indexOf(vs, v)
				if i < 0 {
					return fmt.Errorf("%w: %s=%s", errValueNotFound, attr, v)
				}
				work.Attrs[attr] = append(vs[:i:i], vs[i+1:]...)
			}
			if len(work.Attrs[attr]) == 0 {
				delete(work.Attrs, attr)
			}
		default:
			return fmt.Errorf("ldapd: unknown mod op %d", m.Op)
		}
	}
	d.entries[ndn] = work
	return nil
}

func indexOf(vs []string, v string) int {
	for i, x := range vs {
		if x == v {
			return i
		}
	}
	return -1
}

// Delete removes a leaf entry.
func (d *Dir) Delete(dn string) error {
	ndn, err := NormalizeDN(dn)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[ndn]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchEntry, ndn)
	}
	if len(d.children[ndn]) > 0 {
		return fmt.Errorf("%w: %s", ErrNotLeaf, ndn)
	}
	delete(d.entries, ndn)
	delete(d.children, ndn)
	parent := ParentDN(ndn)
	kids := d.children[parent]
	if i := indexOf(kids, ndn); i >= 0 {
		d.children[parent] = append(kids[:i:i], kids[i+1:]...)
	}
	return nil
}

// Search returns clones of the entries under base (per scope) matching
// filter (empty filter matches everything), sorted by DN.
func (d *Dir) Search(base string, scope Scope, filter string) ([]*Entry, error) {
	nbase, err := NormalizeDN(base)
	if err != nil {
		return nil, err
	}
	var f *node
	if strings.TrimSpace(filter) != "" {
		f, err = parseFilter(filter)
		if err != nil {
			return nil, err
		}
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if nbase != "" {
		if _, ok := d.entries[nbase]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchEntry, nbase)
		}
	}
	var cands []string
	switch scope {
	case ScopeBase:
		if nbase != "" {
			cands = []string{nbase}
		}
	case ScopeOne:
		cands = append(cands, d.children[nbase]...)
	case ScopeSub:
		if nbase != "" {
			cands = append(cands, nbase)
		}
		var walk func(p string)
		walk = func(p string) {
			for _, c := range d.children[p] {
				cands = append(cands, c)
				walk(c)
			}
		}
		walk(nbase)
	default:
		return nil, fmt.Errorf("ldapd: unknown scope %d", scope)
	}
	var out []*Entry
	for _, dn := range cands {
		e := d.entries[dn]
		if f == nil || f.matches(e) {
			out = append(out, e.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DN < out[j].DN })
	return out, nil
}

// Len returns the number of entries.
func (d *Dir) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}
