package gpsmath

import "math"

// PartitionMemo is a reusable Theorem 11/12 memo for one server and one
// feasible partition, for callers that learn the sessions' arrival
// characterizations class by class — the network recursion of paper
// §6.1, where a session's input at an interior node is the output
// characterization of its previous hop.
//
// It is newPartitionMemo's memo with one difference: the tables that
// read a decay rate — each class's minimum α, their prefix minimum and
// their Hölder prefix sum — are rebuilt from the arrivals present when
// they are first needed. The first bound asked for a session in class c
// recomputes classes 0..c-1, with the same operations in the same order
// as newPartitionMemo, so the bound has the same bits as
// Server.Theorem11/Theorem12 on a server holding the same arrivals. The
// server's Sessions slice is shared, not copied: the caller overwrites
// Arrival slots in place, and must do so for every member of a class
// before asking for a bound in any later class. Arrivals of the session
// itself and of its own or later classes may still change between
// calls; they are read when the bound is built and evaluated.
type PartitionMemo struct {
	m     *partitionMemo
	ready int // classes whose α tables reflect their final arrivals
}

// NewPartitionMemo builds the partition memo for p. Everything but the
// α tables reads only ρ and φ, so it is final from the start.
func (s Server) NewPartitionMemo(p Partition) *PartitionMemo {
	return &PartitionMemo{m: s.newPartitionMemo(p)}
}

// finalizeBelow recomputes the α tables of classes 0..c-1 from the
// current arrivals: one step of newPartitionMemo's loops per class.
func (pm *PartitionMemo) finalizeBelow(c int) {
	m := pm.m
	for ; pm.ready < c; pm.ready++ {
		l := pm.ready
		minA := math.Inf(1)
		for _, j := range m.p.Classes[l] {
			if a := m.s.Sessions[j].Arrival.Alpha; a < minA {
				minA = a
			}
		}
		m.classMinA[l] = minA
		if l+1 < len(m.p.Classes) {
			m.preMinClassA[l+1] = m.preMinClassA[l]
			if minA < m.preMinClassA[l+1] {
				m.preMinClassA[l+1] = minA
			}
			m.preInvClassA[l+1] = m.preInvClassA[l] + 1/minA
		}
	}
}

// Theorem11Into fills sb with session i's Theorem 11 bound family
// (Server.Theorem11 with the memo's partition).
func (pm *PartitionMemo) Theorem11Into(sb *SessionBounds, i int, mode XiMode) error {
	if err := pm.m.checkIndex(i); err != nil {
		return err
	}
	pm.finalizeBelow(pm.m.p.ClassOf[i])
	return pm.m.theorem11Into(sb, i, mode)
}

// Theorem12Into fills sb with session i's Theorem 12 bound family under
// the automatic Hölder exponents (Server.Theorem12 with ps == nil).
func (pm *PartitionMemo) Theorem12Into(sb *SessionBounds, i int, mode XiMode) error {
	if err := pm.m.checkIndex(i); err != nil {
		return err
	}
	pm.finalizeBelow(pm.m.p.ClassOf[i])
	return pm.m.theorem12Into(sb, i, nil, mode)
}
