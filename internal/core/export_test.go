package core

import "fmt"

// CheckPools reports a pooled record that is linked into its free list
// twice, is not cleared there, or is still reached from a live structure:
// the request table, the done queue or the request queue.
func (m *MCCP) CheckPools() error {
	free := map[*request]bool{}
	for r := m.freeReq; r != nil; r = r.next {
		if free[r] {
			return fmt.Errorf("request record %p on the free list twice", r)
		}
		free[r] = true
		if r.cb != nil || r.id != 0 || r.n != 0 || r.pending != 0 {
			return fmt.Errorf("free request record %p not cleared: id %d, %d cores, %d pending", r, r.id, r.n, r.pending)
		}
	}
	for id, r := range m.requests {
		if free[r] {
			return fmt.Errorf("request %d's record is on the free list", id)
		}
		if r.id != id {
			return fmt.Errorf("request table entry %d holds request %d", id, r.id)
		}
	}
	for _, r := range m.doneQ[m.doneHead:] {
		if free[r] {
			return fmt.Errorf("done queue holds a free record (request %d)", r.id)
		}
	}
	for _, r := range m.waitQ[m.waitHead:] {
		if free[r] {
			return fmt.Errorf("request queue holds a free record")
		}
	}
	cmds := map[*command]bool{}
	for c := m.freeCmd; c != nil; c = c.next {
		if cmds[c] {
			return fmt.Errorf("command record %p on the free list twice", c)
		}
		cmds[c] = true
		if c.onOpen != nil || c.onErr != nil || c.onRetrieve != nil {
			return fmt.Errorf("free command record %p still holds a callback", c)
		}
	}
	return nil
}
