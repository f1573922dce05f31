package authz

// Durable authorization databases: each AddRule is one WAL record
// appended before the rule becomes visible, with periodic snapshots
// bounding replay. Rules change at administrative rates, so records are
// JSON.

import (
	"encoding/json"
	"fmt"

	"proxykit/internal/principal"
	"proxykit/internal/restrict"
)

// snapRule is the serialized form of one Rule.
type snapRule struct {
	EndServer    string   `json:"endServer"`
	Object       string   `json:"object,omitempty"`
	Principals   []string `json:"principals,omitempty"`
	Groups       []string `json:"groups,omitempty"`
	Ops          []string `json:"ops,omitempty"`
	Restrictions []byte   `json:"restrictions,omitempty"` // restrict.Set wire bytes
}

type snapState struct {
	Rules []snapRule `json:"rules"`
}

func encodeRule(r Rule) snapRule {
	sr := snapRule{
		EndServer: r.EndServer.String(),
		Object:    r.Object,
		Ops:       r.Ops,
	}
	for _, p := range r.Subject.Principals {
		sr.Principals = append(sr.Principals, p.String())
	}
	for _, g := range r.Subject.Groups {
		sr.Groups = append(sr.Groups, g.String())
	}
	if len(r.Restrictions) > 0 {
		sr.Restrictions = r.Restrictions.Marshal()
	}
	return sr
}

func decodeRule(sr snapRule) (Rule, error) {
	end, err := principal.Parse(sr.EndServer)
	if err != nil {
		return Rule{}, fmt.Errorf("authz: restore end-server %q: %w", sr.EndServer, err)
	}
	r := Rule{EndServer: end, Object: sr.Object, Ops: sr.Ops}
	for _, ps := range sr.Principals {
		p, err := principal.Parse(ps)
		if err != nil {
			return Rule{}, fmt.Errorf("authz: restore principal %q: %w", ps, err)
		}
		r.Subject.Principals = append(r.Subject.Principals, p)
	}
	for _, gs := range sr.Groups {
		g, err := principal.ParseGlobal(gs)
		if err != nil {
			return Rule{}, fmt.Errorf("authz: restore group %q: %w", gs, err)
		}
		r.Subject.Groups = append(r.Subject.Groups, g)
	}
	if len(sr.Restrictions) > 0 {
		rs, err := restrict.Unmarshal(sr.Restrictions)
		if err != nil {
			return Rule{}, fmt.Errorf("authz: restore restrictions: %w", err)
		}
		r.Restrictions = rs
	}
	return r, nil
}

// commitLocked logs the rule record and applies it; callers hold the
// write lock. A refused or failed WriteAhead skips the mutation.
func (s *Server) commitLocked(r Rule) error {
	if err := s.WriteAhead(func() ([]byte, error) { return json.Marshal(encodeRule(r)) }); err != nil {
		return err
	}
	s.rules = append(s.rules, r)
	return nil
}

// Apply implements durable.Machine: recovery and replication replay a
// rule record through the same decode path.
func (s *Server) Apply(record []byte, logged func() error) error {
	var sr snapRule
	if err := json.Unmarshal(record, &sr); err != nil {
		return fmt.Errorf("authz: decode WAL rule: %w", err)
	}
	r, err := decodeRule(sr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := logged(); err != nil {
		return err
	}
	s.rules = append(s.rules, r)
	return nil
}

// Snapshot implements durable.Machine: the full rule database in
// insertion order. AddRule holds mu across append+apply, so no commit
// is mid-flight when captured runs.
func (s *Server) Snapshot(captured func()) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := snapState{}
	for _, r := range s.rules {
		st.Rules = append(st.Rules, encodeRule(r))
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	captured()
	return raw, nil
}

// Restore implements durable.Machine: every rule is decoded first, and
// only a fully decoded database replaces the live one.
func (s *Server) Restore(raw []byte, swapped func() error) error {
	var st snapState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("authz: restore snapshot: %w", err)
	}
	rules := make([]Rule, 0, len(st.Rules))
	for _, sr := range st.Rules {
		r, err := decodeRule(sr)
		if err != nil {
			return err
		}
		rules = append(rules, r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = rules
	return swapped()
}

// Empty implements durable.Machine: no rules exist yet.
func (s *Server) Empty() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rules) == 0
}
