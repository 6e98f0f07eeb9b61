package rpc

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/store"
	"sigmadedupe/internal/tenant"
	"sigmadedupe/internal/wire"
)

// The tests below are generated from the verb table: every declared verb
// has one sample (a fixed argument and result), and each test walks all
// of them, so a verb added without a sample fails TestVerbTable.

// sample is one verb's fixed argument and result, with what the tests
// need of the verb, type-erased.
type sample struct {
	op       opcode
	class    class
	node     bool   // a node verb (else the director's)
	request  []byte // the request frame: header ‖ argument
	reply    []byte // the reply frame: header ‖ result
	payloads bool   // a walk carried payloads to the frame tail
	// args and result decode a walk from r and re-encode it.
	args, result func(r *wire.Reader) ([]byte, error)
	// roundTrip decodes the sample's frames and compares the values.
	roundTrip func() error
	// walks encode the argument and the result.
	walks [2]func(*coder)
}

const sampleID, sampleTimeout = 42, 1500

// sampleOf encodes verb v's sample argument a and result r.
func sampleOf[S, A, R any](v verb[S, A, R], a A, r R) sample {
	_, isNode := any(*new(S)).(*store.Engine)
	s := sample{op: v.op, class: v.class, node: isNode, args: recode(v.args), result: recode(v.result)}
	x := coder{b: appendRequestHeader(nil, sampleID, v.op, sampleTimeout)}
	v.args(&x, &a)
	s.payloads = payloadSize(x.payloads) > 0
	s.request = whole(&x)
	x = coder{b: appendResponseHeader(nil, sampleID, "")}
	v.result(&x, &r)
	s.payloads = s.payloads || payloadSize(x.payloads) > 0
	s.reply = whole(&x)
	s.walks = [2]func(*coder){func(x *coder) { v.args(x, &a) }, func(x *coder) { v.result(x, &r) }}
	s.roundTrip = func() error {
		rq := wire.NewReader(s.request)
		if id, op, ms, err := decodeRequestHeader(rq); err != nil || id != sampleID || op != v.op || ms != sampleTimeout {
			return fmt.Errorf("request header: %d %d %d %v", id, op, ms, err)
		}
		var a2 A
		d := coder{r: rq}
		v.args(&d, &a2)
		if err := d.done(); err != nil {
			return fmt.Errorf("argument: %w", err)
		}
		rr := wire.NewReader(s.reply)
		if k, id, msg := rr.U8(), rr.U64(), rr.String(); k != frameResponse || id != sampleID || msg != "" {
			return fmt.Errorf("reply header: %d %d %q", k, id, msg)
		}
		var r2 R
		d = coder{r: rr}
		v.result(&d, &r2)
		if err := d.done(); err != nil {
			return fmt.Errorf("result: %w", err)
		}
		if !reflect.DeepEqual(a2, a) || !reflect.DeepEqual(r2, r) {
			return fmt.Errorf("did not survive the round trip:\n got %+v, %+v\nwant %+v, %+v", a2, r2, a, r)
		}
		return nil
	}
	return s
}

// whole is an encoded message entire: what follows the length prefix on
// the wire, vectored or not.
func whole(x *coder) []byte {
	b := append([]byte(nil), x.b...)
	for _, ch := range x.payloads {
		b = append(b, ch.Data...)
	}
	return b
}

// recode decodes one walk from r and encodes what it read.
func recode[T any](walk func(*coder, *T)) func(*wire.Reader) ([]byte, error) {
	return func(r *wire.Reader) ([]byte, error) {
		var v T
		d := coder{r: r}
		walk(&d, &v)
		if err := d.done(); err != nil {
			return nil, err
		}
		var e coder
		walk(&e, &v)
		return whole(&e), nil
	}
}

// samples is every verb's sample, node verbs first.
var samples = func() []sample {
	hp := []fingerprint.Fingerprint{testFP(1), testFP(2), testFP(3)}
	const stream = "client-a/backup-7"
	entries := []director.ChunkEntry{
		{FP: testFP(1), Size: 4096, Node: 0, Replica: -1},
		{FP: testFP(2), Size: 512, Node: 3, Replica: 1},
	}
	rec := director.Recipe{Path: "/vm/disk0.img", Session: 77, Gen: 9, Chunks: entries}
	mem := director.MembershipInfo{Epoch: 5, Nodes: []director.NodeInfo{{ID: 0, Addr: "127.0.0.1:9000"}, {ID: 3, Addr: "unix:/tmp/n3.sock"}}}
	mig := director.Migration{ID: 2, Path: rec.Path, From: 0, To: 3, Start: 10, Count: 2,
		FPs: []fingerprint.Fingerprint{testFP(4), testFP(5)}}
	st := director.TenantStatus{
		Info:  tenant.Info{Name: "acme", Domain: "isolated", QuotaBytes: 1 << 30, Weight: 3},
		Usage: tenant.Usage{LiveBytes: 1, LogicalBytes: 2, StoredBytes: 3, RestoredBytes: 4, Backups: 5},
	}
	none := struct{}{}
	return []sample{
		sampleOf(bid, hp, bidReply{17, 9 << 30}),
		sampleOf(query, []core.ChunkRef{{FP: testFP(10), Size: 5}, {FP: testFP(11), Size: 9}}, []bool{true, false}),
		sampleOf(storeChunks, scArgs{stream, nil, []core.ChunkRef{
			{FP: testFP(10), Size: 5, Data: []byte("hello")},
			{FP: testFP(11), Size: 9}, // fingerprint-only: no payload
			{FP: testFP(12), Size: 3, Data: []byte{0, 1, 2}},
		}}, none),
		sampleOf(flush, none, none),
		sampleOf(decRef, decRefArgs{hp, []int64{1, -3, 1 << 40}}, none),
		sampleOf(compact, 0.75, store.CompactResult{Scanned: 4, Rewritten: 1, Retired: 1, CopiedBytes: 50,
			ReclaimedBytes: 150, SkippedNoPayload: 1}),
		sampleOf(gcStats, none, gcReply{store.GCStats{StoredBytes: 1000, DeadBytes: 200, LiveBytes: 800, Containers: 4,
			RetiredContainers: 1, ReclaimedBytes: 150, CopiedBytes: 50, CompactRuns: 2, CompactErrors: 1,
			LastCompactErr: "disk full"}, 9 << 30}),
		sampleOf(migrateCommit, "migrate", none),
		sampleOf(refCounts, hp, []int64{2, 2, 5}),
		sampleOf(readBatch, []fingerprint.Fingerprint{testFP(20), testFP(21)}, readReply{[]uint32{1, 0},
			[]core.ChunkRef{{FP: testFP(21), Size: 4, Data: []byte("data")}, {FP: testFP(20), Size: 3, Data: []byte("abc")}}}),
		sampleOf(dedup, scArgs{stream, hp[:2], []core.ChunkRef{
			{FP: testFP(1), Size: 5, Data: []byte("eager")}, {FP: testFP(2), Size: 9}, {FP: testFP(12), Size: 3},
		}}, []bool{true, false, true}),
		sampleOf(dedupMissing, scArgs{stream, hp[:2], []core.ChunkRef{{FP: testFP(2), Size: 9, Data: []byte("new chunk")}}}, []bool{false}),

		sampleOf(beginSession, sessionArgs{"client-a", "acme"}, 77),
		sampleOf(endSession, 77, none),
		sampleOf(swapRecipe, swapArgs{77, rec.Path, entries}, rec),
		sampleOf(getRecipe, rec.Path, rec),
		sampleOf(deleteRecipe, rec.Path, rec),
		sampleOf(members, none, mem),
		sampleOf(setMembers, membersArgs{4, mem.Nodes}, mem),
		sampleOf(beginMigration, mig, 2),
		sampleOf(endMigration, 2, none),
		sampleOf(pendingMigrations, none, []director.Migration{mig, {ID: 3, Path: "p", From: 1}}),
		sampleOf(recipes, none, []director.Recipe{rec, {Path: "q", Session: 78, Gen: 1}}),
		sampleOf(replaceRecipe, replaceArgs{rec.Path, 77, 9, entries}, none),
		sampleOf(createTenant, st.Info, none),
		sampleOf(tenants, none, []director.TenantStatus{st, {Info: tenant.Info{Name: "b"}}}),
		sampleOf(tenantStatus, "acme", st),
		sampleOf(setTenantQuota, tenantArgs{name: "acme", a: 5 << 20}, none),
		sampleOf(setTenantWeight, tenantArgs{name: "acme", a: 7}, none),
		sampleOf(accountTransfer, tenantArgs{"acme", 6, 8}, none),
	}
}()

// TestVerbTable checks the table's rules: one sample per verb, unique op
// numbers apart from the reserved ones, node ops below the director's,
// seals exactly Flush and MigrateCommit, every store but Dedup
// acknowledged in the batched-ack frame, and the payload-bearing verbs
// exactly those whose walks leave payloads for the frame tail.
func TestVerbTable(t *testing.T) {
	seen := map[opcode]bool{}
	var nodeVerbs int
	var sealing []opcode
	for _, s := range samples {
		if seen[s.op] {
			t.Fatalf("op %d has two samples", s.op)
		}
		seen[s.op] = true
		e, ok := verbs[s.op]
		if !ok || e.class != s.class {
			t.Fatalf("op %d: registered %v with class %b, sample's verb has class %b (two verbs share an op?)", s.op, ok, e.class, s.class)
		}
		if s.node != (s.op < 32) {
			t.Fatalf("op %d is on the wrong side of 32", s.op)
		}
		if s.node {
			nodeVerbs++
		}
		if s.class&seals != 0 {
			sealing = append(sealing, s.op)
		}
		if s.class&stores != 0 && (s.class&acked != 0) == (s.op == dedup.op) {
			t.Fatalf("op %d: a store other than Dedup must be acked, Dedup must not (class %b)", s.op, s.class)
		}
		if (s.class&payloads != 0) != s.payloads {
			t.Fatalf("op %d: payload-bearing class %v, but its walks carry payloads: %v", s.op, s.class&payloads != 0, s.payloads)
		}
	}
	if len(verbs) != len(samples) {
		t.Fatalf("%d verbs registered, %d have a sample", len(verbs), len(samples))
	}
	if nodeVerbs != 12 || len(samples)-nodeVerbs != 18 {
		t.Fatalf("%d node and %d director verbs, want 12 and 18", nodeVerbs, len(samples)-nodeVerbs)
	}
	for _, op := range []opcode{4, 5, 7, 11, 12} {
		if _, ok := verbs[op]; ok {
			t.Fatalf("reserved op %d is reused", op)
		}
	}
	sort.Slice(sealing, func(i, j int) bool { return sealing[i] < sealing[j] })
	if !reflect.DeepEqual(sealing, []opcode{flush.op, migrateCommit.op}) {
		t.Fatalf("sealing ops %v, want Flush and MigrateCommit", sealing)
	}
}

// TestVerbFrameGolden pins every verb's request and reply encoding (node
// protocol 4, director protocol 3): a changed digest is a wire change,
// which takes a new handshake protocol number.
func TestVerbFrameGolden(t *testing.T) {
	golden := map[opcode][2]string{
		1: {"dfebe0b4395fddb652815558f24acb95416f6d20e84b5deacad240750f1d6a68",
			"e894be39516d6d484dbc2aa8cfa409569044ab1992e83cb316c049101a5ffec5"},
		2: {"f8056572ced45ba64942488f91b237a988361be70e851af186677e972ad266ba",
			"212f6e624f9c3e293c625ec456711313217e0d89d0adb0fecbd561401f884a1c"},
		3: {"d98b99f632e04f34dbb459d446545f73ba42dfb00c3f02b0079661efc707a219",
			"b7470717432ec0f021683f4078d5b7b4e303f62ac36fe43064b6ec9fccd0db1e"},
		6: {"bb8f9886a3931c94df9b7a9761994c1e2c7d3c052b66b7da5dc2048e414ad819",
			"b7470717432ec0f021683f4078d5b7b4e303f62ac36fe43064b6ec9fccd0db1e"},
		8: {"85b4f011af3c9bf61ccd601bec9e27dcb8348e8d3c21f41b27b3da767523157c",
			"b7470717432ec0f021683f4078d5b7b4e303f62ac36fe43064b6ec9fccd0db1e"},
		9: {"df88da1c483479bc95576c08469bfee90a45f7de5211d4b39ec23f96688e57da",
			"d4bf8f89737f9c34d1f7a8134dd82485c8c6b28481f1777c40345f27dac08915"},
		10: {"1caca15005778ac1478a52b84d001696c8f43b951dd122fa6efaf5f5edeeea1d",
			"5d9f3046306879f6f31e2425bc56432403584b7b21e41a027a779fe756036669"},
		13: {"dc856ae817fa0c1590b8af73733db6ea20e2035ab836f7d38cbb61d87539b9a9",
			"b7470717432ec0f021683f4078d5b7b4e303f62ac36fe43064b6ec9fccd0db1e"},
		14: {"756168e21cf0532c5d2db23e26dffd9570c33e3449815155e86d25c10287905a",
			"0fb1ebdabed4d5b0fa39564f5e085c3f1a8896ea0c3efc364349421f0ca3dd97"},
		15: {"c22f900938bab7f311564d6134b6aeb260089c86c8f736cbd78978a2922fabc0",
			"da51772edf5ff053a427e2ae7c8b109179f236aa4462db7bcd6746648a6df8f5"},
		16: {"2012fd2a5f8e02a55f0461b0ac3735b293d3c8b54a33713fe55de1f468aa7282",
			"f67624c9c0ca663806712200ffcc7b0c154648aeb0f315394d75ad86eaadda11"},
		17: {"c6297a5636cad39441f21c286abaa6e51b4596fdc12cafbf840d23ff6aa5d321",
			"e75f6a8bf30b2c66dffb3a4f4ebe2689782cb8ad49879d71f0a6b6b7e43e0d37"},
		32: {"703b5cb6b8d4503fa14725593a73400e08cfc5353609e37ce125d68304a7d983",
			"78d396a9a7500012fb028f092d02e6487064f8f787c4949fd7fb6b4bc169e13d"},
		33: {"bc95ba59aec176578daaab69692f7a955a21fcd8a8b50d921ad1cb699242802d",
			"b7470717432ec0f021683f4078d5b7b4e303f62ac36fe43064b6ec9fccd0db1e"},
		34: {"a5e1cc40d6cd47bcca4f237e59d894465a653f6e525490ad255057cda3c024c7",
			"a5675e129c5e5a973b627a652bfd8e1efe43d4ca9b0ed5b79d4a8532fab29634"},
		35: {"eb640bd23ba0124264c81fd7ac0463612d041dbff2d23bf92dc3d51f0cfe9fea",
			"a5675e129c5e5a973b627a652bfd8e1efe43d4ca9b0ed5b79d4a8532fab29634"},
		36: {"c3f299344bf6bfc45c8b81499831023cc685a030522370a6cc2b74b5735fe941",
			"a5675e129c5e5a973b627a652bfd8e1efe43d4ca9b0ed5b79d4a8532fab29634"},
		37: {"d1fa78316c728e496a7e027dbcf76c33a5c8b916341f5a583d63ff045bec26f2",
			"0b9ee48f65f8de8bd5316f4ccbfc1bc19dc9025b07d61a47c5cfa0872fc27ce2"},
		38: {"81b359e4d7717584d5e28f094fd9a8aaec30943fd64db31b37307fa39d47af40",
			"0b9ee48f65f8de8bd5316f4ccbfc1bc19dc9025b07d61a47c5cfa0872fc27ce2"},
		39: {"4ea9af52cf22e97dfe2a6f9439af88a8e1b0d0cdd27532308e5e0d7d436bd875",
			"556a47307e22a27de667dcf0718208b50024c545d6358b696ca57c8b14f448e1"},
		40: {"becfb39a2e2ce831bff230c841a30b48a556f9b3ecbb59362928da654ad41b40",
			"b7470717432ec0f021683f4078d5b7b4e303f62ac36fe43064b6ec9fccd0db1e"},
		41: {"97fa7d46c336ae56575e2083b2438aeee2d36723aef011377f6869855b9d0b13",
			"310a6a8f4e4adf8e7be798dd088ce0a1a4ef5f638ed1c631cc50ad5eccc72fe7"},
		42: {"1590d16b48f1a28ecceae2c690361dd2f865f36d983420ab848f718ddf7b81ac",
			"6236979b6c93300f42c108ce53ccce3543b509f6453a1b9aa758523a76dec253"},
		43: {"ada5f870b90f4ac90906cee6198a2ba87a419340df872e91deafe7aa924b7513",
			"b7470717432ec0f021683f4078d5b7b4e303f62ac36fe43064b6ec9fccd0db1e"},
		44: {"55365bb5160edac3d9cacd5007ec977a617235cf3800a52e87443a54c4783ba9",
			"b7470717432ec0f021683f4078d5b7b4e303f62ac36fe43064b6ec9fccd0db1e"},
		45: {"24bd2b13ae0e725b451e0aca5700a6760c90c810cea94981b73d6ff6877e0c07",
			"f015cbe0995b01f8ae67e8496e6a29b221569954395501b539e765acd2daaf9b"},
		46: {"83871866d9445e9b6156cbc00186e9a8ee8847048b012526673bc1b47bc31d4a",
			"5ede2dbeab7f17a088a46a74f904da7a5ad8442c88f2e65ba68a3a366037ab7d"},
		47: {"c3277a0b12563d9e139630bfc272342b16a15999cd87061af60090d3d2a8e294",
			"b7470717432ec0f021683f4078d5b7b4e303f62ac36fe43064b6ec9fccd0db1e"},
		48: {"3dabc530d926f380bd7444b1073268edd921ccdaba3efe92b4cf49175686147f",
			"b7470717432ec0f021683f4078d5b7b4e303f62ac36fe43064b6ec9fccd0db1e"},
		49: {"e35cf96a8263f51c920ed3f2aa60b801ac54d1eb60220c7b4e2ba166497bbf22",
			"b7470717432ec0f021683f4078d5b7b4e303f62ac36fe43064b6ec9fccd0db1e"},
	}
	for _, s := range samples {
		req, rep := sha256.Sum256(s.request), sha256.Sum256(s.reply)
		got := [2]string{hex.EncodeToString(req[:]), hex.EncodeToString(rep[:])}
		want, ok := golden[s.op]
		if !ok {
			t.Errorf("op %d has no golden digests; got %q", s.op, got)
		} else if got != want {
			t.Errorf("op %d: digests %q, want %q (wire format changed)", s.op, got, want)
		}
	}
	if wire.ProtoNode != 4 || wire.ProtoDirector != 3 {
		t.Fatalf("protocols %d, %d: want 4, 3", wire.ProtoNode, wire.ProtoDirector)
	}
}

// rawDial opens a connection speaking proto with no Client on it.
func rawDial(t *testing.T, addr string, proto byte) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	if err := wire.WriteHandshake(conn, proto); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHandshake(br, proto); err != nil {
		t.Fatal(err)
	}
	return conn, br
}

// rawCall sends one request frame and returns the reply's error.
func rawCall(t *testing.T, conn net.Conn, br *bufio.Reader, id uint64, op opcode, arg []byte) error {
	t.Helper()
	if err := wire.WriteFrame(conn, append(appendRequestHeader(nil, id, op, 0), arg...)); err != nil {
		t.Fatal(err)
	}
	body, err := wire.ReadFrame(br, 0)
	if err != nil {
		t.Fatalf("op %d: no reply: %v", op, err)
	}
	r := wire.NewReader(body)
	if k, got := r.U8(), r.U64(); k != frameResponse || got != id {
		t.Fatalf("op %d: reply kind %d, ID %d", op, k, got)
	}
	return sderr.Decode(r.String())
}

// TestUnknownOpIsMalformed: on either protocol, an op the server does not
// serve — reserved, never given, or the other protocol's — and an
// argument that does not decode are answered with a typed ErrMalformed,
// and the connection stays usable.
func TestUnknownOpIsMalformed(t *testing.T) {
	nd, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nsrv, err := NewServer(nd, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nsrv.Close() })
	dsrv, err := NewDirectorServer(director.New(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dsrv.Close() })
	for _, tc := range []struct {
		name    string
		srv     *Server
		proto   byte
		foreign opcode // the other protocol's
		listed  opcode // a verb whose argument starts with a count
		ok      opcode // a verb that takes no argument
	}{
		{"node", nsrv, wire.ProtoNode, beginSession.op, bid.op, gcStats.op},
		{"director", dsrv, wire.ProtoDirector, bid.op, getRecipe.op, members.op},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, br := rawDial(t, tc.srv.Addr(), tc.proto)
			for i, op := range []opcode{4, 5, 7, 11, 12, 200, tc.foreign} {
				if err := rawCall(t, conn, br, uint64(i), op, nil); !errors.Is(err, sderr.ErrMalformed) {
					t.Fatalf("op %d: %v, want ErrMalformed", op, err)
				}
			}
			truncated := wire.AppendU32(nil, 5) // a count of five with nothing after it
			if err := rawCall(t, conn, br, 100, tc.listed, truncated); !errors.Is(err, sderr.ErrMalformed) {
				t.Fatalf("undecodable argument: %v, want ErrMalformed", err)
			}
			if err := rawCall(t, conn, br, 101, tc.ok, nil); err != nil {
				t.Fatalf("op %d after the refusals: %v", tc.ok, err)
			}
		})
	}
}

// TestRetiredNodeProtocolFailsTyped: a peer that announces the retired
// node protocol (1, the union envelope) fails the dial typed.
func TestRetiredNodeProtocolFailsTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		wire.ReadHandshake(conn, wire.ProtoNode)
		wire.WriteHandshake(conn, 1)
		conn.Read(make([]byte, 1)) // until the client hangs up
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if c, err := DialContext(ctx, ln.Addr().String()); !errors.Is(err, sderr.ErrUnavailable) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("dial of a protocol-1 peer: %v, want ErrUnavailable", err)
	}
}
