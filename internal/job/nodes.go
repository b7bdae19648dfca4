package job

import (
	"fmt"

	"clonos/internal/types"
)

// AllocationStrategy places standby tasks on simulated cluster nodes
// (§6.3): the choice trades resource utilization and performance against
// failure safety — a standby co-located with its running task dies with
// the node.
type AllocationStrategy int

const (
	// AllocSameAsRunning spreads standbys with the same round-robin
	// strategy as the running tasks (the paper's default); collisions
	// with the mirrored task are possible.
	AllocSameAsRunning AllocationStrategy = iota
	// AllocAntiAffinity guarantees a standby lands on a different node
	// than the task it mirrors (maximum failure safety).
	AllocAntiAffinity
	// AllocCoLocated places each standby on its running task's node
	// (locality/performance over safety).
	AllocCoLocated
)

func (a AllocationStrategy) String() string {
	switch a {
	case AllocAntiAffinity:
		return "anti-affinity"
	case AllocCoLocated:
		return "co-located"
	default:
		return "same-as-running"
	}
}

// assignNodes places running tasks and standbys on the configured number
// of simulated nodes. Call with r.mu held, after tasks/standbys exist.
func (r *Runtime) assignNodes() {
	n := r.cfg.Nodes
	if n <= 0 {
		return // node simulation disabled
	}
	ids := r.graph.AllTaskIDs()
	for i, id := range ids {
		r.nodeOf[id] = i % n
	}
	for i, id := range ids {
		if _, ok := r.standbys[id]; !ok {
			continue
		}
		running := r.nodeOf[id]
		switch r.cfg.StandbyAllocation {
		case AllocAntiAffinity:
			if n > 1 {
				r.standbyNodeOf[id] = (running + 1) % n
			} else {
				r.standbyNodeOf[id] = running
			}
		case AllocCoLocated:
			r.standbyNodeOf[id] = running
		default:
			// Continue the running tasks' round-robin.
			r.standbyNodeOf[id] = (len(ids) + i) % n
		}
	}
}

// NodeOf reports the simulated node hosting a running task (-1 when node
// simulation is disabled).
func (r *Runtime) NodeOf(id types.TaskID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if node, ok := r.nodeOf[id]; ok {
		return node
	}
	return -1
}

// StandbyNodeOf reports the node hosting a task's standby (-1 if none).
func (r *Runtime) StandbyNodeOf(id types.TaskID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if node, ok := r.standbyNodeOf[id]; ok {
		return node
	}
	return -1
}

// InjectNodeFailure crashes every running task on a simulated node and
// destroys any standby task hosted there (§6.3: co-located standbys die
// with the node; their tasks recover from a fresh replacement loaded off
// the snapshot store instead).
func (r *Runtime) InjectNodeFailure(node int) error {
	if r.cfg.Nodes <= 0 {
		return fmt.Errorf("job: node simulation disabled (Config.Nodes == 0)")
	}
	r.mu.Lock()
	var victims []types.TaskID
	for id := range r.tasks {
		if r.nodeOf[id] == node && !r.finished[id] {
			victims = append(victims, id)
		}
	}
	var lostStandbys []types.TaskID
	for id, standbyNode := range r.standbyNodeOf {
		if standbyNode != node {
			continue
		}
		if standby, ok := r.standbys[id]; ok {
			delete(r.standbys, id)
			lostStandbys = append(lostStandbys, id)
			for _, oc := range standby.allOut {
				oc.close()
			}
		}
	}
	r.mu.Unlock()
	r.recordEvent(EventNodeFailure, types.TaskID{}, fmt.Sprintf("node=%d tasks=%d standbys-lost=%d", node, len(victims), len(lostStandbys)))
	// A node's tasks die at one instant.
	r.crashAll(victims, fmt.Sprintf("node=%d", node))
	return nil
}
