package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	gonet "net"
	"sync"
	"time"

	"gowali/internal/apps"
	"gowali/internal/core"
	"gowali/internal/interp"
	knet "gowali/internal/kernel/net"
	"gowali/internal/wasm"
)

// The four workloads. Names are fixed: later issues cite them.
var workloads = []*workload{
	{
		name: "kv-serve", clients: kvClients, latCap: 1 << 18, setup: setupKV,
		why: "epoll KV guest behind HostNet, 2 host TCP connections at depth 1, 90% GET / 10% SET: the full request stack; kernel/net, waitq, sched and the core syscall wrapper do the work, interp almost none",
	},
	{
		name: "lua-compute", clients: 1, latCap: 1 << 12, setup: setupLua,
		why: "Spawn+Wait of the cached lua guest (6.6 M instructions, 109 syscalls): interp does about 80% of the work, the kernel layers almost none",
	},
	{
		name: "sqlite-fs", clients: 1, latCap: 1 << 13, setup: setupSqlite,
		why: "Spawn+Wait of a cached sqlite-like guest updating a 1 MiB database in place on memfs: 15907 non-blocking pread/pwrite/fsync/journal create-unlink calls per op through core, kernel and kernel/vfs",
	},
	{
		name: "guest-start", clients: 1, latCap: 1 << 16, setup: setupStart,
		why: "Spawn+Wait of a cached 16-page guest that does next to nothing: instantiate, process create, exit, wait, slot admit instead of steady state",
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// Guest scales and the fixed work of every set-up. The lua scale and the
// sqlite guest's transaction count (guests.go) make an op 7-8 ms, so
// that the spawn both ops pay
// (core.spawn_us, about 0.6 ms) stays under a tenth of them and each
// workload keeps measuring its own layer. The preload and warm-up
// counts make a set-up about a second of real work on the reference box
// and leave caches and lazy paths warm before the first timed op; they
// are counts, not durations, so a faster system finishes its set-up
// sooner and setup_s shows it.
const (
	kvClients  = 2
	kvWarmOps  = 2048 // per client, after the 64 Ki-key preload
	luaScale   = 200000
	luaWarmOps = 165
	sqliteWarm = 150
	startWarm  = 2600
)

// compileCold is the cold path a set-up pays before its first spawn:
// the built module goes through the binary codec (encode, decode,
// validate) and the interp translator, with no cache in front.
func compileCold(m *wasm.Module) (*interp.Compiled, error) {
	dec, err := wasm.Decode(wasm.Encode(m))
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if err := wasm.Validate(dec); err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	return interp.Compile(dec)
}

// ---------- spawn workloads ----------

// spawnInst serves lua-compute, sqlite-fs and guest-start: one client,
// op = Spawn of the cached module + Wait, verified by exit status and
// console output.
type spawnInst struct {
	rt   *guestRT
	c    *interp.Compiled
	name string
	env  []string
	rng  *rng
	rec  *recorder
	// argv1 makes the op's second argument, "" for none; want is the
	// console output the op must produce given that argument.
	argv1 func(r *rng) string
	want  func(argv1 string) string
	// after, when set, checks state the guest left behind.
	after func(rt *guestRT) error

	counters layerCounters
}

func (s *spawnInst) op(int) (int, error) {
	argv := []string{s.name}
	var a1 string
	if s.argv1 != nil {
		a1 = s.argv1(s.rng)
		argv = append(argv, a1)
	}
	id := s.rec.nextOp()
	root := s.rec.begin(s.name+" op", -1, id, 0)
	defer s.rec.end(root)

	sp := s.rec.begin("core.Spawn", root, id, 0)
	p, err := s.rt.w.SpawnCompiled(s.c, s.name, argv, s.env)
	if err != nil {
		s.rec.end(sp)
		return 0, fmt.Errorf("spawn: %w", err)
	}
	p.RunAsync()
	s.rec.end(sp)

	sp = s.rec.begin("core.Wait", root, id, 0)
	status, runErr := p.Wait()
	s.rec.end(sp)

	s.counters.ops++
	s.counters.steps += p.Exec.Steps
	t, n := s.rt.w.SyscallStats(p.KP.PID)
	s.counters.handlerNs += int64(t)
	s.counters.syscalls += n

	out := s.rt.k.Console.TakeOutput()
	if runErr != nil || status != 0 {
		return 0, fmt.Errorf("guest ended with status %d, err %v", status, runErr)
	}
	if want := s.want(a1); string(out) != want {
		return 0, fmt.Errorf("console %q, want %q", out, want)
	}
	if s.after != nil {
		if err := s.after(s.rt); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

func (s *spawnInst) close() (layerCounters, error) {
	s.counters.sched = s.rt.w.Sched.Stats()
	s.rt.close()
	return s.counters, nil
}

// warm runs the fixed warm-up; a failed warm-up op fails the set-up.
func (s *spawnInst) warm(n int, e env) (instance, error) {
	rec := s.rec
	s.rec = nil // warm-up ops are not part of the traced window
	for i := 0; i < max(n/e.setupDiv, 1); i++ {
		if _, err := s.op(0); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	s.rec = rec
	return s, nil
}

func newSpawnInst(e env, m *wasm.Module) (*spawnInst, error) {
	c, err := compileCold(m)
	if err != nil {
		return nil, err
	}
	return &spawnInst{
		rt: newGuestRT(e.plane, nil), c: c, name: m.Name,
		env: []string{"HOME=/root", "TERM=dumb"},
		rng: newRNG(e.seed), rec: e.rec,
	}, nil
}

func setupLua(e env) (instance, error) {
	s, err := newSpawnInst(e, apps.BuildLua(luaScale))
	if err != nil {
		return nil, err
	}
	apps.SetupLua(s.rt.k)
	s.want = func(string) string { return "lua: ok\n" }
	return s.warm(luaWarmOps, e)
}

func setupSqlite(e env) (instance, error) {
	s, err := newSpawnInst(e, buildSqliteGuest())
	if err != nil {
		return nil, err
	}
	apps.SetupSqlite(s.rt.k)
	s.want = func(string) string { return sqlDone }
	// Every op draws the same page sequence, so after n ops the page drawn
	// last holds its own offset and a change counter of n times the draws
	// that hit it.
	lastOff, hits := sqliteLastPage()
	hdr := make([]byte, 12)
	s.after = func(rt *guestRT) error {
		// Walk reports a missing last component as a nil Node, not an errno.
		db, errno := rt.k.FS.Walk("/", sqlDB, true)
		if errno != 0 || db.Node == nil {
			return fmt.Errorf("database missing after the run: %v", errno)
		}
		if got := db.Node.Size(); got != sqlPages*sqlPage {
			return fmt.Errorf("database is %d bytes, want %d", got, sqlPages*sqlPage)
		}
		if _, errno := db.Node.ReadAt(hdr, lastOff); errno != 0 {
			return fmt.Errorf("read page at %d: %v", lastOff, errno)
		}
		off, changes := binary.LittleEndian.Uint64(hdr), binary.LittleEndian.Uint32(hdr[8:])
		if want := uint32(s.counters.ops) * hits; off != uint64(lastOff) || changes != want {
			return fmt.Errorf("page at %d holds offset %d and %d changes, want %d changes", lastOff, off, changes, want)
		}
		if j, _ := rt.k.FS.Walk("/", sqlJournal, true); j.Node != nil {
			return fmt.Errorf("journal survived the run")
		}
		return nil
	}
	return s.warm(sqliteWarm, e)
}

// sqliteLastPage replays the guest's page draws: the offset of the page
// one op draws last and how many of the op's draws hit that page.
func sqliteLastPage() (off int64, hits uint32) {
	x, draws := uint32(0x12345678), make([]uint32, sqlTxns*sqlPerTxn)
	for i := range draws {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		draws[i] = x % sqlPages
	}
	last := draws[len(draws)-1]
	for _, d := range draws {
		if d == last {
			hits++
		}
	}
	return int64(last) * sqlPage, hits
}

func setupStart(e env) (instance, error) {
	s, err := newSpawnInst(e, buildStartGuest())
	if err != nil {
		return nil, err
	}
	s.argv1 = func(r *rng) string { return fmt.Sprintf("%016x", r.next()) }
	s.want = func(token string) string { return token }
	return s.warm(startWarm, e)
}

// ---------- kv-serve ----------

// kvClient is one host TCP connection with its own generator and its
// own shadow of the keys it owns (key mod clients == its number), so
// every reply can be checked byte for byte without the clients racing.
type kvClient struct {
	id     int
	conn   gonet.Conn
	rng    *rng
	shadow []uint64 // indexed by key / kvClients
	buf    [2 * kvRec]byte
}

// next draws the client's next request: 90% GET / 10% SET over its half
// of the 64 Ki keys.
func (c *kvClient) next() (op, key uint32, val uint64) {
	r := c.rng.next()
	key = uint32(r>>8)%(kvSlots/kvClients)*kvClients + uint32(c.id)
	if r%10 == 0 {
		return kvOpSet, key, c.rng.next() | 1
	}
	return kvOpGet, key, 0
}

// roundTrip sends one record and checks the reply against the shadow.
func (c *kvClient) roundTrip(op, key uint32, val uint64) error {
	req, rep := c.buf[:kvRec], c.buf[kvRec:]
	binary.LittleEndian.PutUint32(req[0:], op)
	binary.LittleEndian.PutUint32(req[4:], key)
	binary.LittleEndian.PutUint64(req[8:], val)
	if _, err := c.conn.Write(req); err != nil {
		return err
	}
	if _, err := io.ReadFull(c.conn, rep); err != nil {
		return err
	}
	want := val
	if op == kvOpGet {
		want = c.shadow[key/kvClients]
	}
	if !bytes.Equal(rep[:8], req[:8]) || binary.LittleEndian.Uint64(rep[8:]) != want {
		return fmt.Errorf("reply % x to request % x, want value %#x", rep, req, want)
	}
	if op == kvOpSet {
		c.shadow[key/kvClients] = val
	}
	return nil
}

type kvInst struct {
	rt  *guestRT
	hn  *knet.HostNet
	srv *core.Process
	cl  []*kvClient
	rec *recorder
	ops uint64 // preload + warm-up; op() counts its own per client below
	n   []uint64
}

func (k *kvInst) op(c int) (int, error) {
	cl := k.cl[c]
	op, key, val := cl.next()
	id := k.rec.nextOp()
	sp := k.rec.begin("kv conn write→read", -1, id, c)
	err := cl.roundTrip(op, key, val)
	k.rec.end(sp)
	k.n[c]++
	return int(op), err
}

func (k *kvInst) close() (layerCounters, error) {
	// QUIT has no reply: the server prints its line and exits.
	quit := make([]byte, kvRec)
	binary.LittleEndian.PutUint32(quit, kvOpQuit)
	_, werr := k.cl[0].conn.Write(quit)
	status, runErr := k.srv.Wait()
	for _, cl := range k.cl {
		cl.conn.Close()
	}
	out := k.rt.k.Console.TakeOutput()

	c := layerCounters{ops: k.ops, steps: k.srv.Exec.Steps, sched: k.rt.w.Sched.Stats()}
	for _, n := range k.n {
		c.ops += n
	}
	t, n := k.rt.w.SyscallStats(k.srv.KP.PID)
	c.handlerNs, c.syscalls = int64(t), n
	k.rt.close()
	k.hn.Close()
	switch {
	case werr != nil:
		return c, fmt.Errorf("send QUIT: %w", werr)
	case runErr != nil || status != 0:
		return c, fmt.Errorf("kv server ended with status %d, err %v", status, runErr)
	case string(out) != kvDone:
		return c, fmt.Errorf("kv server console %q, want %q", out, kvDone)
	}
	return c, nil
}

func setupKV(e env) (instance, error) {
	c, err := compileCold(buildKVServer())
	if err != nil {
		return nil, err
	}
	hn := knet.NewHostNet(knet.HostNetConfig{Binds: map[uint16]string{kvPort: "127.0.0.1:0"}})
	rt := newGuestRT(e.plane, hn)
	srv, err := rt.w.SpawnCompiled(c, "kv-serve", []string{"kv-serve"}, nil)
	if err != nil {
		return nil, err
	}
	srv.RunAsync()

	// The guest binds asynchronously; poll finely so set-up time is the
	// guest's, not the poll interval's.
	var addr string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if addr = hn.BoundAddr(kvPort); addr != "" {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("kv guest never listened")
		}
		time.Sleep(20 * time.Microsecond)
	}

	k := &kvInst{rt: rt, hn: hn, srv: srv, rec: e.rec, n: make([]uint64, kvClients)}
	for i := 0; i < kvClients; i++ {
		conn, err := gonet.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		k.cl = append(k.cl, &kvClient{
			id: i, conn: conn, rng: newRNG(e.seed + uint64(i)),
			shadow: make([]uint64, kvSlots/kvClients),
		})
	}

	// Preload every key with a SET, then a fixed mixed warm-up; each
	// client works its own connection, as in the timed window.
	perClient := kvSlots / kvClients / e.setupDiv
	warm := max(kvWarmOps/e.setupDiv, 1)
	errs := make([]error, kvClients)
	var wg sync.WaitGroup
	for i, cl := range k.cl {
		wg.Add(1)
		go func(i int, cl *kvClient) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				key := uint32(j*kvClients + i)
				if errs[i] = cl.roundTrip(kvOpSet, key, cl.rng.next()|1); errs[i] != nil {
					return
				}
			}
			for j := 0; j < warm; j++ {
				if errs[i] = cl.roundTrip(cl.next()); errs[i] != nil {
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	k.ops = uint64(kvClients * (perClient + warm))
	return k, nil
}
