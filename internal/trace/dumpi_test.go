package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"hpctradeoff/internal/simtime"
)

const dumpiRank0 = `
# rank 0 of 2
MPI_Init entering at walltime 0.000000, cputime 0.0 seconds in thread 0.
MPI_Init returning at walltime 0.000100.

MPI_Isend entering at walltime 0.001000.
  int count=1024
  MPI_Datatype datatype=11 (MPI_DOUBLE)
  int dest=1
  int tag=7
  MPI_Comm comm=2 (MPI_COMM_WORLD)
  MPI_Request request=3
MPI_Isend returning at walltime 0.001005.

MPI_Wait entering at walltime 0.002000.
  MPI_Request request=3
MPI_Wait returning at walltime 0.002010.

MPI_Allreduce entering at walltime 0.003000.
  int count=2
  MPI_Datatype datatype=11 (MPI_DOUBLE)
  MPI_Comm comm=2 (MPI_COMM_WORLD)
MPI_Allreduce returning at walltime 0.003050.
`

const dumpiRank1 = `
MPI_Recv entering at walltime 0.000500.
  int count=1024
  MPI_Datatype datatype=11 (MPI_DOUBLE)
  int source=0
  int tag=7
  MPI_Comm comm=2 (MPI_COMM_WORLD)
MPI_Recv returning at walltime 0.001900.

MPI_Allreduce entering at walltime 0.002900.
  int count=2
  MPI_Datatype datatype=11 (MPI_DOUBLE)
  MPI_Comm comm=2 (MPI_COMM_WORLD)
MPI_Allreduce returning at walltime 0.003100.
`

func TestReadDUMPIASCII(t *testing.T) {
	tr, err := ReadDUMPIASCII(
		Meta{App: "imported", Class: "X", Machine: "edison", NumRanks: 2},
		[]io.Reader{strings.NewReader(dumpiRank0), strings.NewReader(dumpiRank1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0: compute(gap to isend), isend, compute, wait, compute, allreduce.
	ops := []Op{}
	for _, e := range tr.Ranks[0] {
		ops = append(ops, e.Op)
	}
	want := []Op{OpCompute, OpIsend, OpCompute, OpWait, OpCompute, OpAllreduce}
	if len(ops) != len(want) {
		t.Fatalf("rank 0 ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("rank 0 ops = %v, want %v", ops, want)
		}
	}
	isend := tr.Ranks[0][1]
	if isend.Bytes != 1024*8 {
		t.Errorf("isend bytes = %d, want 8192 (1024 doubles)", isend.Bytes)
	}
	if isend.Peer != 1 || isend.Tag != 7 || isend.Req != 3 {
		t.Errorf("isend fields: %+v", isend)
	}
	if isend.Entry != simtime.FromSeconds(0.001) {
		t.Errorf("isend entry = %v", isend.Entry)
	}
	ar := tr.Ranks[0][5]
	if ar.Op != OpAllreduce || ar.Bytes != 16 {
		t.Errorf("allreduce: %+v", ar)
	}
	// MPI_Init was skipped; its time became compute.
	if tr.Ranks[0][0].Op != OpCompute || tr.Ranks[0][0].Exit != simtime.FromSeconds(0.001) {
		t.Errorf("leading compute: %+v", tr.Ranks[0][0])
	}
}

func TestReadDUMPIASCIIWaitall(t *testing.T) {
	r0 := `
MPI_Irecv entering at walltime 0.001.
  int count=4
  MPI_Datatype datatype=6 (MPI_INT)
  int source=1
  int tag=0
  MPI_Comm comm=2 (MPI_COMM_WORLD)
  MPI_Request request=0
MPI_Irecv returning at walltime 0.0011.
MPI_Waitall entering at walltime 0.002.
  MPI_Request requests=[0]
MPI_Waitall returning at walltime 0.003.
`
	r1 := `
MPI_Send entering at walltime 0.0005.
  int count=4
  MPI_Datatype datatype=6 (MPI_INT)
  int dest=0
  int tag=0
  MPI_Comm comm=2 (MPI_COMM_WORLD)
MPI_Send returning at walltime 0.0006.
`
	tr, err := ReadDUMPIASCII(Meta{App: "w", NumRanks: 2},
		[]io.Reader{strings.NewReader(r0), strings.NewReader(r1)})
	if err != nil {
		t.Fatal(err)
	}
	var wa *Event
	for i := range tr.Ranks[0] {
		if tr.Ranks[0][i].Op == OpWaitall {
			wa = &tr.Ranks[0][i]
		}
	}
	if wa == nil || len(wa.Reqs) != 1 || wa.Reqs[0] != 0 {
		t.Fatalf("waitall not parsed: %+v", wa)
	}
	if tr.Ranks[1][1].Bytes != 16 {
		t.Errorf("send bytes = %d, want 16", tr.Ranks[1][1].Bytes)
	}
}

func TestReadDUMPIASCIIErrors(t *testing.T) {
	cases := []struct {
		name  string
		rank0 string
	}{
		{"nested call", "MPI_Send entering at walltime 0.1.\nMPI_Recv entering at walltime 0.2.\n"},
		{"unmatched return", "MPI_Send returning at walltime 0.1.\n"},
		{"eof inside call", "MPI_Send entering at walltime 0.1.\n  int dest=1\n"},
		{"missing peer", "MPI_Send entering at walltime 0.1.\n  int count=1\nMPI_Send returning at walltime 0.2.\n"},
		{"bad walltime", "MPI_Send entering at walltime xyz.\n"},
		{"time reversal", `MPI_Barrier entering at walltime 0.5.
MPI_Comm comm=2 (MPI_COMM_WORLD)
MPI_Barrier returning at walltime 0.6.
MPI_Barrier entering at walltime 0.1.
MPI_Comm comm=2 (MPI_COMM_WORLD)
MPI_Barrier returning at walltime 0.2.
`},
		{"sub-communicator", `MPI_Barrier entering at walltime 0.1.
MPI_Comm comm=5 (user comm)
MPI_Barrier returning at walltime 0.2.
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadDUMPIASCII(Meta{App: "e", NumRanks: 1},
				[]io.Reader{strings.NewReader(tc.rank0)})
			if err == nil {
				t.Fatal("accepted bad input")
			}
		})
	}
	if _, err := ReadDUMPIASCII(Meta{NumRanks: 2}, []io.Reader{strings.NewReader("")}); err == nil {
		t.Fatal("stream count mismatch accepted")
	}
}

func TestDumpiImportReplayable(t *testing.T) {
	// The imported trace must validate (it did, inside ReadDUMPIASCII)
	// and round-trip through the binary codec.
	tr, err := ReadDUMPIASCII(
		Meta{App: "imported", NumRanks: 2},
		[]io.Reader{strings.NewReader(dumpiRank0), strings.NewReader(dumpiRank1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteColumnsV3(&buf, FromTrace(tr)); err != nil {
		t.Fatal(err)
	}
	back, err := ReadColumns(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvents(t, tr, back)
	if err := back.Validate(); err != nil {
		t.Errorf("imported trace fails validation after the round trip: %v", err)
	}
}
