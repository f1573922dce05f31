package group

// Durable group databases: each membership mutation is one WAL record
// appended before the in-memory change becomes visible, and a periodic
// snapshot bounds replay. Mutations are JSON-encoded — the group
// database changes at administrative rates, not on any hot path.

import (
	"encoding/json"
	"fmt"
	"sort"

	"proxykit/internal/principal"
)

// groupOp is one WAL record.
type groupOp struct {
	Kind      string `json:"kind"` // add-group | add-member | add-nested | remove-member
	Group     string `json:"group"`
	Principal string `json:"principal,omitempty"`
	Nested    string `json:"nested,omitempty"`
}

const (
	gopAddGroup     = "add-group"
	gopAddMember    = "add-member"
	gopAddNested    = "add-nested"
	gopRemoveMember = "remove-member"
)

// commitLocked logs the op and applies it; callers hold the write
// lock. A refused or failed WriteAhead skips the mutation — a change
// that is not durable must not become visible.
func (s *Server) commitLocked(o *groupOp) error {
	if err := s.WriteAhead(func() ([]byte, error) { return json.Marshal(o) }); err != nil {
		return err
	}
	return s.applyLocked(o)
}

// Apply implements durable.Machine: recovery and replication replay a
// record through the same applyLocked the live mutators use.
func (s *Server) Apply(record []byte, logged func() error) error {
	var o groupOp
	if err := json.Unmarshal(record, &o); err != nil {
		return fmt.Errorf("group: decode WAL op: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := logged(); err != nil {
		return err
	}
	return s.applyLocked(&o)
}

// applyLocked mutates in-memory state for one op — shared by the live
// mutators and recovery replay.
func (s *Server) applyLocked(o *groupOp) error {
	ensure := func() *members {
		g, ok := s.groups[o.Group]
		if !ok {
			g = &members{principals: principal.NewSet()}
			s.groups[o.Group] = g
		}
		return g
	}
	switch o.Kind {
	case gopAddGroup:
		ensure()
	case gopAddMember:
		p, err := principal.Parse(o.Principal)
		if err != nil {
			return fmt.Errorf("group: replay member %q: %w", o.Principal, err)
		}
		ensure().principals.Add(p)
	case gopAddNested:
		sub, err := principal.ParseGlobal(o.Nested)
		if err != nil {
			return fmt.Errorf("group: replay nested %q: %w", o.Nested, err)
		}
		g := ensure()
		g.nested = append(g.nested, sub)
	case gopRemoveMember:
		p, err := principal.Parse(o.Principal)
		if err != nil {
			return fmt.Errorf("group: replay member %q: %w", o.Principal, err)
		}
		if g, ok := s.groups[o.Group]; ok {
			delete(g.principals, p)
		}
	default:
		return fmt.Errorf("group: replay: unknown op %q", o.Kind)
	}
	return nil
}

// snapGroup / snapState are the snapshot schema, sorted throughout so
// identical databases marshal identically.
type snapGroup struct {
	Name       string   `json:"name"`
	Principals []string `json:"principals,omitempty"`
	Nested     []string `json:"nested,omitempty"`
}

type snapState struct {
	Groups []snapGroup `json:"groups"`
}

// Snapshot implements durable.Machine: the full database as a
// deterministic JSON document. Mutators hold mu across append+apply, so
// no commit is mid-flight when captured runs.
func (s *Server) Snapshot(captured func()) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := snapState{}
	names := make([]string, 0, len(s.groups))
	for name := range s.groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := s.groups[name]
		sg := snapGroup{Name: name}
		for p := range g.principals {
			sg.Principals = append(sg.Principals, p.String())
		}
		sort.Strings(sg.Principals)
		for _, sub := range g.nested {
			sg.Nested = append(sg.Nested, sub.String())
		}
		st.Groups = append(st.Groups, sg)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	captured()
	return raw, nil
}

// Restore implements durable.Machine: the document is decoded into a
// fresh map, and only a fully decoded database replaces the live one.
func (s *Server) Restore(raw []byte, swapped func() error) error {
	var st snapState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("group: restore snapshot: %w", err)
	}
	groups := make(map[string]*members, len(st.Groups))
	for _, sg := range st.Groups {
		g := &members{principals: principal.NewSet()}
		for _, ps := range sg.Principals {
			p, err := principal.Parse(ps)
			if err != nil {
				return fmt.Errorf("group: restore principal %q: %w", ps, err)
			}
			g.principals.Add(p)
		}
		for _, ns := range sg.Nested {
			sub, err := principal.ParseGlobal(ns)
			if err != nil {
				return fmt.Errorf("group: restore nested %q: %w", ns, err)
			}
			g.nested = append(g.nested, sub)
		}
		groups[sg.Name] = g
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groups = groups
	return swapped()
}

// Empty implements durable.Machine: no groups exist yet.
func (s *Server) Empty() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.groups) == 0
}
