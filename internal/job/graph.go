// Package job implements the execution layer: the dataflow graph, the
// task runtime (one main loop per task, barrier alignment, causally logged
// execution, output dispatch with in-flight logging), the job manager with
// heartbeat failure detection, standby tasks, and both recovery protocols
// — global rollback (the Flink baseline) and Clonos local recovery.
package job

import (
	"fmt"

	"clonos/internal/codec"
	"clonos/internal/operator"
	"clonos/internal/types"
)

// Partitioner selects how records are routed across an edge.
type Partitioner int

const (
	// PartitionForward connects subtask i to subtask i (equal parallelism).
	PartitionForward Partitioner = iota
	// PartitionHash routes by key modulo downstream parallelism,
	// re-keying with the edge's KeyOf when set.
	PartitionHash
	// PartitionRebalance round-robins records (counter kept in state so
	// replay reproduces routing).
	PartitionRebalance
	// PartitionBroadcast sends every record to all downstream subtasks.
	PartitionBroadcast
)

func (p Partitioner) String() string {
	switch p {
	case PartitionForward:
		return "forward"
	case PartitionHash:
		return "hash"
	case PartitionRebalance:
		return "rebalance"
	case PartitionBroadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("partitioner(%d)", int(p))
	}
}

// Vertex is one logical operator chain of the dataflow graph.
type Vertex struct {
	ID          types.VertexID
	Name        string
	Parallelism int
	// Source drives input vertices; nil otherwise.
	Source operator.Source
	// Operators is the fused chain executed per record.
	Operators []operator.Operator

	InEdges  []*Edge
	OutEdges []*Edge
}

// Edge is a logical connection between two vertices.
type Edge struct {
	ID          types.EdgeID
	From, To    *Vertex
	Partitioner Partitioner
	// KeyOf re-keys records for hash partitioning; nil keeps the
	// producing record's key.
	KeyOf func(v any) uint64
	// Codec serializes record values on this edge; nil selects the
	// registered codec per value (codec.Auto).
	Codec codec.Codec
}

// CodecOrDefault returns the edge codec. The default is the registry
// dispatcher: one tag byte, then the encoding of the codec registered
// for the value's concrete type; a value of an unregistered type is an
// encode error that fails the sending task.
func (e *Edge) CodecOrDefault() codec.Codec {
	if e.Codec != nil {
		return e.Codec
	}
	return codec.Auto{}
}

// Graph is a logical dataflow DAG.
type Graph struct {
	Vertices []*Vertex
	Edges    []*Edge
}

// NewGraph creates an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddVertex appends a vertex, assigning its ID.
func (g *Graph) AddVertex(name string, parallelism int, src operator.Source, ops ...operator.Operator) *Vertex {
	v := &Vertex{
		ID:          types.VertexID(len(g.Vertices)),
		Name:        name,
		Parallelism: parallelism,
		Source:      src,
		Operators:   ops,
	}
	g.Vertices = append(g.Vertices, v)
	return v
}

// Connect adds an edge from one vertex to another.
func (g *Graph) Connect(from, to *Vertex, p Partitioner, keyOf func(v any) uint64, c codec.Codec) *Edge {
	e := &Edge{
		ID:          types.EdgeID(len(g.Edges)),
		From:        from,
		To:          to,
		Partitioner: p,
		KeyOf:       keyOf,
		Codec:       c,
	}
	g.Edges = append(g.Edges, e)
	from.OutEdges = append(from.OutEdges, e)
	to.InEdges = append(to.InEdges, e)
	return e
}

// Validate checks structural invariants.
func (g *Graph) Validate() error {
	for _, v := range g.Vertices {
		if v.Parallelism <= 0 {
			return fmt.Errorf("job: vertex %q has parallelism %d", v.Name, v.Parallelism)
		}
		if v.Source == nil && len(v.InEdges) == 0 {
			return fmt.Errorf("job: non-source vertex %q has no inputs", v.Name)
		}
		if v.Source != nil && len(v.InEdges) > 0 {
			return fmt.Errorf("job: source vertex %q has inputs", v.Name)
		}
	}
	for _, e := range g.Edges {
		if e.Partitioner == PartitionForward && e.From.Parallelism != e.To.Parallelism {
			return fmt.Errorf("job: forward edge %d between different parallelisms", e.ID)
		}
	}
	if g.hasCycle() {
		return fmt.Errorf("job: graph has a cycle")
	}
	return nil
}

func (g *Graph) hasCycle() bool {
	state := make(map[types.VertexID]int) // 0 unseen, 1 visiting, 2 done
	var visit func(v *Vertex) bool
	visit = func(v *Vertex) bool {
		switch state[v.ID] {
		case 1:
			return true
		case 2:
			return false
		}
		state[v.ID] = 1
		for _, e := range v.OutEdges {
			if visit(e.To) {
				return true
			}
		}
		state[v.ID] = 2
		return false
	}
	for _, v := range g.Vertices {
		if visit(v) {
			return true
		}
	}
	return false
}

// Depth returns the graph depth D: the longest source-to-vertex path
// length, with sources at depth zero (§5.3).
func (g *Graph) Depth() int {
	memo := make(map[types.VertexID]int)
	var depth func(v *Vertex) int
	depth = func(v *Vertex) int {
		if d, ok := memo[v.ID]; ok {
			return d
		}
		d := 0
		for _, e := range v.InEdges {
			if up := depth(e.From) + 1; up > d {
				d = up
			}
		}
		memo[v.ID] = d
		return d
	}
	max := 0
	for _, v := range g.Vertices {
		if d := depth(v); d > max {
			max = d
		}
	}
	return max
}

// AllTaskIDs enumerates every task of the graph.
func (g *Graph) AllTaskIDs() []types.TaskID {
	var out []types.TaskID
	for _, v := range g.Vertices {
		for s := 0; s < v.Parallelism; s++ {
			out = append(out, types.TaskID{Vertex: v.ID, Subtask: int32(s)})
		}
	}
	return out
}

// Downstream returns the tasks within the given hop distance downstream of
// a task, breadth-first (used for determinant retrieval across DSD hops).
func (g *Graph) Downstream(id types.TaskID, hops int) []types.TaskID {
	v := g.Vertices[id.Vertex]
	seen := map[types.TaskID]bool{id: true}
	frontier := []*Vertex{v}
	var out []types.TaskID
	for h := 0; h < hops; h++ {
		var next []*Vertex
		for _, fv := range frontier {
			for _, e := range fv.OutEdges {
				next = append(next, e.To)
				for s := 0; s < e.To.Parallelism; s++ {
					t := types.TaskID{Vertex: e.To.ID, Subtask: int32(s)}
					if !seen[t] {
						seen[t] = true
						out = append(out, t)
					}
				}
			}
		}
		frontier = next
	}
	return out
}

// channelID builds the physical channel ID for an edge between subtasks.
func channelID(e *Edge, from, to int32) types.ChannelID {
	return types.ChannelID{Edge: e.ID, From: from, To: to}
}

// inChannels enumerates the input channels of one task in gate order,
// with the port (input-edge index) of each.
func inChannels(v *Vertex, subtask int32) (ids []types.ChannelID, ports []int) {
	for port, e := range v.InEdges {
		for from := int32(0); from < int32(e.From.Parallelism); from++ {
			ids = append(ids, channelID(e, from, subtask))
			ports = append(ports, port)
		}
	}
	return ids, ports
}
