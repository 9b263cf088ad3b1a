// Package trace defines the DUMPI-like MPI communication trace model
// that every tool in this repository consumes: per-rank event streams
// with entry/exit timestamps and communication metadata, communicator
// tables, the zero-copy binary codec, validation, and aggregate
// statistics.
//
// A trace records what an MPI application did on a real (here:
// synthesized ground-truth) machine. Replay tools honor the recorded
// happened-before relationships while re-costing communication under a
// different machine model.
package trace

import "fmt"

// Op identifies the kind of an MPI event recorded in a trace.
type Op uint8

// The operation vocabulary. It covers blocking and nonblocking
// point-to-point, completion, and the collectives used by the workload
// suite (the same set DUMPI records for the paper's applications).
const (
	// OpCompute is a local computation interval between MPI calls.
	OpCompute Op = iota
	// OpSend is a blocking standard-mode send.
	OpSend
	// OpIsend is a nonblocking send; completion is observed by a wait.
	OpIsend
	// OpRecv is a blocking receive.
	OpRecv
	// OpIrecv is a nonblocking receive; completion is observed by a wait.
	OpIrecv
	// OpWait completes one pending request.
	OpWait
	// OpWaitall completes a set of pending requests.
	OpWaitall
	// OpBarrier synchronizes a communicator.
	OpBarrier
	// OpBcast broadcasts Bytes from Root to the communicator.
	OpBcast
	// OpReduce reduces Bytes from all members to Root.
	OpReduce
	// OpAllreduce reduces Bytes and distributes the result to all.
	OpAllreduce
	// OpGather gathers Bytes per member to Root.
	OpGather
	// OpAllgather gathers Bytes per member to every member.
	OpAllgather
	// OpAlltoall exchanges Bytes between every pair of members.
	OpAlltoall
	// OpAlltoallv exchanges SendBytes[i] from the caller to member i.
	OpAlltoallv
	// OpScatter distributes Bytes per member from Root.
	OpScatter
	// OpReduceScatter reduces and scatters Bytes per member.
	OpReduceScatter
	numOps
)

var opNames = [...]string{
	OpCompute:       "compute",
	OpSend:          "send",
	OpIsend:         "isend",
	OpRecv:          "recv",
	OpIrecv:         "irecv",
	OpWait:          "wait",
	OpWaitall:       "waitall",
	OpBarrier:       "barrier",
	OpBcast:         "bcast",
	OpReduce:        "reduce",
	OpAllreduce:     "allreduce",
	OpGather:        "gather",
	OpAllgather:     "allgather",
	OpAlltoall:      "alltoall",
	OpAlltoallv:     "alltoallv",
	OpScatter:       "scatter",
	OpReduceScatter: "reducescatter",
}

// String returns the lowercase MPI-ish name of the operation.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined operation.
func (op Op) Valid() bool { return op < numOps }

// IsP2P reports whether op is a point-to-point transfer operation.
func (op Op) IsP2P() bool {
	switch op {
	case OpSend, OpIsend, OpRecv, OpIrecv:
		return true
	}
	return false
}

// IsCollective reports whether op involves a whole communicator.
func (op Op) IsCollective() bool {
	switch op {
	case OpBarrier, OpBcast, OpReduce, OpAllreduce, OpGather,
		OpAllgather, OpAlltoall, OpAlltoallv, OpScatter, OpReduceScatter:
		return true
	}
	return false
}

// IsNonblocking reports whether op initiates a request completed later
// by a wait operation.
func (op Op) IsNonblocking() bool { return op == OpIsend || op == OpIrecv }

// IsWait reports whether op completes pending requests.
func (op Op) IsWait() bool { return op == OpWait || op == OpWaitall }

// IsRooted reports whether the collective has a distinguished root rank.
func (op Op) IsRooted() bool {
	switch op {
	case OpBcast, OpReduce, OpGather, OpScatter:
		return true
	}
	return false
}
