package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"apna"
	"apna/internal/aa"
	"apna/internal/accountability"
	"apna/internal/border"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/ms"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// ctrlConfig sizes the control-plane world: a full mesh of ASes built
// through the apna facade with digest dissemination on, and a fixed
// host population per AS.
type ctrlConfig struct {
	ases       int
	hostsPerAS int
	latency    time.Duration
	digest     time.Duration
	lifetime   uint32
}

var ctrlStd = ctrlConfig{ases: 4, hostsPerAS: 8, latency: 5 * time.Millisecond, digest: time.Second, lifetime: 120}

// strikeLimit keeps HID escalation on but out of reach: a run strikes
// one host per round, and escalation would revoke the sender hosts
// and end the closed loop.
const strikeLimit = 1 << 30

// Control-plane operations, in the order a round runs them.
const (
	opIssue = iota
	opRenew
	opConnect
	opComplain
	opShutoff
	opCount
)

var opNames = [opCount]string{"issue", "renew", "connect", "complain", "shutoff"}

type ctrlRig struct {
	cfg   ctrlConfig
	in    *apna.Internet
	ases  []*apna.AS
	hosts [][]*apna.Host
	links []*netsim.Link
	rng   *rand.Rand
	round int64

	// Traced runs only: a shadow accountability engine per AS, sharing
	// the AS's sealer, secret and trust store but with its own host
	// table copy and signer, replays captured shutoff requests without
	// touching the real AS's state.
	shadow     map[apna.AID]*accountability.Engine
	lastReq    []byte
	tapOn      bool
	replaySign *crypto.Signer
}

// newCtrlRig builds the facade world. The facade draws AS, RPKI and
// host keys from crypto/rand; the topology, host names and every
// choice the loop makes come from seed.
func newCtrlRig(cfg ctrlConfig, seed int64) (*ctrlRig, error) {
	opts := apna.DefaultOptions()
	opts.StrikeLimit = strikeLimit
	topo := []apna.TopologyOption{apna.WithOptions(opts), apna.WithFullMesh(100, cfg.ases, cfg.latency)}
	for a := 0; a < cfg.ases; a++ {
		names := make([]string, cfg.hostsPerAS)
		for h := range names {
			names[h] = fmt.Sprintf("h%d-%d", a, h)
		}
		topo = append(topo, apna.WithHosts(apna.AID(100+a), names...))
	}
	in, err := apna.New(seed, topo...)
	if err != nil {
		return nil, err
	}
	r := &ctrlRig{cfg: cfg, in: in, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	for a := 0; a < cfg.ases; a++ {
		as := in.AS(apna.AID(100 + a))
		r.ases = append(r.ases, as)
		var hs []*apna.Host
		for h := 0; h < cfg.hostsPerAS; h++ {
			hs = append(hs, in.Host(fmt.Sprintf("h%d-%d", a, h)))
		}
		r.hosts = append(r.hosts, hs)
		for b := a + 1; b < cfg.ases; b++ {
			r.links = append(r.links, in.InterASLink(as.AID, apna.AID(100+b)))
		}
	}
	// Start the digest timer now and run half an interval, so every
	// round starts half an interval after a flush and no flush lands
	// inside a timed operation.
	in.StartAccountability(cfg.digest)
	in.RunFor(cfg.digest / 2)
	return r, nil
}

// enableReplay prepares the shadow engines and the inter-AS tap that
// captures shutoff requests for the traced run.
func (r *ctrlRig) enableReplay(seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x7ace))
	var err error
	if r.replaySign, err = crypto.SignerFromSeed(seededBytes(rng, 32)); err != nil {
		return err
	}
	r.shadow = make(map[apna.AID]*accountability.Engine)
	for _, as := range r.ases {
		db := hostdb.New()
		var entries []hostdb.Entry
		as.DB.Range(func(e hostdb.Entry) bool { entries = append(entries, e); return true })
		db.PutBatch(entries)
		signer, err := crypto.SignerFromSeed(seededBytes(rng, 32))
		if err != nil {
			return err
		}
		agent := aa.New(aa.Config{AID: as.AID}, as.Sealer(), db, as.Secret(), r.in.Trust, r.in.Now)
		r.shadow[as.AID] = accountability.New(accountability.Config{
			AID: as.AID, Signer: signer, Trust: r.in.Trust, Agent: agent, Now: r.in.Now,
		})
	}
	for _, l := range r.links {
		l.AddTap(func(frame []byte, _ *netsim.Port) {
			if !r.tapOn {
				return
			}
			p, err := wire.DecodePacket(frame)
			if err != nil || p.Header.NextProto != wire.ProtoAcct || len(p.Payload) < 2 ||
				p.Payload[0] != accountability.MsgShutoffRequest {
				return
			}
			r.lastReq = append(r.lastReq[:0], p.Payload[1:]...)
		})
	}
	return nil
}

// ctrlStats accumulates one control-plane phase.
type ctrlStats struct {
	latUs    [opCount][]float64
	lat      latSum // over every operation
	events   [opCount]uint64
	bytes    [opCount]uint64
	attempts int64
	failures int64
	failLog  []string
}

func (s *ctrlStats) fail(format string, args ...any) {
	s.failures++
	if len(s.failLog) < 8 {
		s.failLog = append(s.failLog, fmt.Sprintf(format, args...))
	}
}

func (s *ctrlStats) latTotal() latSum { return s.lat }

// ctrlFault tampers with the first receipt at or after a round: a
// negative check for the correctness gates.
type ctrlFault struct {
	round int64
	done  bool
}

func (r *ctrlRig) interASBytes() uint64 {
	var n uint64
	for _, l := range r.links {
		n += l.Stats().Bytes
	}
	return n
}

// timed runs one facade call, recording its wall time and the
// simulator events and inter-AS bytes it caused.
func (r *ctrlRig) timed(op int, st *ctrlStats, tr *tracer, fn func()) int32 {
	ev0, by0 := r.in.Sim.Events(), r.interASBytes()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	st.attempts++
	us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
	st.latUs[op] = append(st.latUs[op], us)
	st.lat.us += us
	st.lat.n++
	st.events[op] += r.in.Sim.Events() - ev0
	st.bytes[op] += r.interASBytes() - by0
	return tr.add(opNames[op], -1, r.round, 1, t0, t1)
}

// runRounds runs n rounds. Each round picks a sender and a victim in
// different ASes and runs, one call at a time: issue (sender and
// victim), renew, connect, one message, then Complain or Shutoff, in a
// seeded order that gives both the same count. It then checks the
// revocation and advances virtual time by one digest interval.
func (r *ctrlRig) runRounds(n int, st *ctrlStats, tr *tracer, fault *ctrlFault) {
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = opComplain + i%2
	}
	r.rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i := 0; i < n; i++ {
		r.roundOnce(kinds[i], st, tr, fault)
		if r.round%16 == 0 {
			now := r.in.Now()
			for _, as := range r.ases {
				as.Router.Revoked().GC(now)
				as.Router.RemoteRevoked().GC(now)
			}
		}
	}
}

func (r *ctrlRig) roundOnce(kind int, st *ctrlStats, tr *tracer, fault *ctrlFault) {
	r.round++
	cfg := r.cfg
	start := r.in.Sim.Now()
	a := r.rng.Intn(cfg.ases)
	b := (a + 1 + r.rng.Intn(cfg.ases-1)) % cfg.ases
	c := a
	for c == a || c == b {
		c = r.rng.Intn(cfg.ases)
	}
	s := r.hosts[a][r.rng.Intn(cfg.hostsPerAS)]
	v := r.hosts[b][r.rng.Intn(cfg.hostsPerAS)]
	asA := r.ases[a]
	defer func() {
		if rest := cfg.digest - (r.in.Sim.Now() - start); rest > 0 {
			r.in.RunFor(rest)
		}
	}()

	var idS0, idV, idS *apna.OwnedEphID
	var err error
	root := r.timed(opIssue, st, tr, func() { idS0, err = s.NewEphID(apna.KindData, cfg.lifetime) })
	if !r.okCert(st, "issue", idS0, err) {
		return
	}
	r.replayIssue(st, tr, root, s, nil)
	root = r.timed(opIssue, st, tr, func() { idV, err = v.NewEphID(apna.KindData, cfg.lifetime) })
	if !r.okCert(st, "issue", idV, err) {
		return
	}
	r.replayIssue(st, tr, root, v, nil)
	root = r.timed(opRenew, st, tr, func() { idS, err = s.Renew(idS0, cfg.lifetime) })
	if !r.okCert(st, "renew", idS, err) {
		return
	}
	r.replayIssue(st, tr, root, s, idS0)
	s.Stack.Retire(idS0)
	defer s.Stack.Retire(idS)
	defer v.Stack.Retire(idV)

	var conn *apna.Conn
	root = r.timed(opConnect, st, tr, func() { conn, err = s.Connect(idS, &idV.Cert, nil) })
	if err != nil {
		st.fail("round %d connect: %v", r.round, err)
		return
	}
	defer conn.Close()
	r.replayConnect(st, tr, root, idS, idV)

	msg := []byte(fmt.Sprintf("round %d from %s", r.round, s.Name))
	st.attempts++
	if err := s.Send(conn, msg); err != nil {
		st.fail("round %d send: %v", r.round, err)
		return
	}
	inbox := v.Stack.Inbox()
	if len(inbox) != 1 || !bytes.Equal(inbox[0].Payload, msg) {
		st.fail("round %d: victim inbox holds %d messages, want the one sent", r.round, len(inbox))
		return
	}
	m := inbox[0]

	r.lastReq = r.lastReq[:0]
	r.tapOn = r.shadow != nil
	switch kind {
	case opComplain:
		var rcpt *apna.ShutoffReceipt
		root = r.timed(opComplain, st, tr, func() { rcpt, err = v.Complain(m) })
		if err != nil {
			st.fail("round %d complain: %v", r.round, err)
			break
		}
		if fault != nil && !fault.done && r.round >= fault.round {
			fault.done = true
			rcpt.IssuedAt++
		}
		if rcpt.Status != apna.ShutoffRevoked {
			st.fail("round %d: receipt status %v, want revoked", r.round, rcpt.Status)
		}
		if err := rcpt.Verify(r.in.Trust, r.in.Now()); err != nil {
			st.fail("round %d: receipt does not verify: %v", r.round, err)
		}
		r.replayComplain(st, tr, root, asA, idV, m, rcpt)
	case opShutoff:
		var ok bool
		root = r.timed(opShutoff, st, tr, func() { ok, err = v.Shutoff(m) })
		if err != nil || !ok {
			st.fail("round %d shutoff: ok=%v err=%v", r.round, ok, err)
			break
		}
		r.replayEvidence(st, tr, root, asA, idV, m)
	}
	r.tapOn = false

	// The revoked EphID's next frame must die at its own border.
	drops := asA.Router.Stats().Get(border.VerdictDropRevoked)
	st.attempts++
	if err := s.Send(conn, msg); err != nil {
		st.fail("round %d post-revocation send: %v", r.round, err)
	}
	if got := v.Stack.Inbox(); len(got) != 0 {
		st.fail("round %d: %d messages delivered after revocation", r.round, len(got))
	}
	if asA.Router.Stats().Get(border.VerdictDropRevoked) != drops+1 {
		st.fail("round %d: post-revocation frame not dropped at the source border", r.round)
	}

	// One digest interval later the third AS must have it too.
	if rest := cfg.digest - (r.in.Sim.Now() - start); rest > 0 {
		r.in.RunFor(rest)
	}
	start = r.in.Sim.Now() // the deferred RunFor has nothing left to do
	if !r.ases[c].Router.RemoteRevoked().Contains(idS.Cert.EphID) {
		st.fail("round %d: revocation did not reach %v after one digest interval", r.round, r.ases[c].AID)
	}
	r.checkStanding(st, s, asA)
}

// okCert checks an issued certificate against its AS key.
func (r *ctrlRig) okCert(st *ctrlStats, what string, o *apna.OwnedEphID, err error) bool {
	if err != nil {
		st.fail("round %d %s: %v", r.round, what, err)
		return false
	}
	key, kerr := r.in.Trust.SigKey(o.Cert.AID, r.in.Now())
	if kerr != nil {
		st.fail("round %d %s: %v", r.round, what, kerr)
		return false
	}
	if err := o.Cert.Verify(key, r.in.Now()); err != nil {
		st.fail("round %d %s: cert does not verify: %v", r.round, what, err)
		return false
	}
	return true
}

// checkStanding fails the round if a renewal was refused or the sender
// host lost its standing.
func (r *ctrlRig) checkStanding(st *ctrlStats, s *apna.Host, as *apna.AS) {
	if d := as.MS.RenewDenied(); d != 0 {
		st.fail("round %d: %d renewals rate-limited", r.round, d)
	}
	e, err := as.DB.Get(s.HID())
	if err != nil || e.Status != hostdb.StatusActive || e.Strikes >= strikeLimit {
		st.fail("round %d: sender host lost standing (err=%v)", r.round, err)
	}
}

// replayIssue times the layer calls an issuance (or, with prev, a
// renewal) is made of: host key generation, and the MS handling an
// encrypted request from this host with the AS signature inside it.
// The host does not verify the certificate it receives over its
// encrypted channel to the MS, so no certificate check is replayed.
func (r *ctrlRig) replayIssue(st *ctrlStats, tr *tracer, root int32, h *apna.Host, prev *apna.OwnedEphID) {
	if tr == nil {
		return
	}
	id := r.round
	t0 := time.Now()
	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		st.fail("round %d replay keygen: %v", id, err)
		return
	}
	sig, err := crypto.GenerateSigner()
	if err != nil {
		st.fail("round %d replay keygen: %v", id, err)
		return
	}
	t1 := time.Now()
	tr.add("crypto.keygen", root, id, 1, t0, t1)
	cfg := h.Stack.Config()
	req := &ms.Request{Kind: ephid.KindData, Lifetime: r.cfg.lifetime}
	if prev != nil {
		req.Flags, req.Prev = ms.ReqFlagRenew, prev.Cert.EphID
	}
	copy(req.DHPub[:], dh.PublicKey())
	copy(req.SigPub[:], sig.PublicKey())
	ct, err := ms.EncodeRequest(cfg.Keys.Enc[:], cfg.CtrlEphID, req)
	if err != nil {
		st.fail("round %d replay request: %v", id, err)
		return
	}
	t2 := time.Now()
	reply, err := h.AS().MS.HandleRequest(cfg.CtrlEphID, ct)
	t3 := time.Now()
	handle := tr.add("ms.handle", root, id, 1, t2, t3)
	if err != nil {
		st.fail("round %d replay MS: %v", id, err)
		return
	}
	c, err := ms.DecodeReply(cfg.Keys.Enc[:], cfg.CtrlEphID, reply)
	if err != nil {
		st.fail("round %d replay reply: %v", id, err)
		return
	}
	tbs, err := c.MarshalBinary()
	if err != nil {
		st.fail("round %d replay cert: %v", id, err)
		return
	}
	t4 := time.Now()
	r.replaySign.Sign("apna/perfbench/cert", tbs)
	t5 := time.Now()
	tr.add("crypto.sign", handle, id, 1, t4, t5)
}

// replayConnect times a handshake's asymmetric work: both ends verify
// the peer certificate and run X25519.
func (r *ctrlRig) replayConnect(st *ctrlStats, tr *tracer, root int32, local, peer *apna.OwnedEphID) {
	if tr == nil {
		return
	}
	id := r.round
	for _, pair := range [2][2]*apna.OwnedEphID{{local, peer}, {peer, local}} {
		me, them := pair[0], pair[1]
		key, err := r.in.Trust.SigKey(them.Cert.AID, r.in.Now())
		if err != nil {
			st.fail("round %d replay trust: %v", id, err)
			return
		}
		t0 := time.Now()
		verr := them.Cert.Verify(key, r.in.Now())
		t1 := time.Now()
		_, derr := me.DH.SharedSecret(them.Cert.DHPub[:])
		t2 := time.Now()
		tr.add("cert.verify", root, id, 1, t0, t1)
		tr.add("crypto.x25519", root, id, 1, t1, t2)
		if verr != nil || derr != nil {
			st.fail("round %d replay connect: %v %v", id, verr, derr)
		}
	}
}

// replayEvidence times the source agent's Figure 5 evidence check on
// the message the victim reported.
func (r *ctrlRig) replayEvidence(st *ctrlStats, tr *tracer, root int32, src *apna.AS, victim *apna.OwnedEphID, m apna.Message) {
	if tr == nil {
		return
	}
	req := aa.BuildRequest(m.Raw, &victim.Cert, victim.Sig)
	t0 := time.Now()
	_, err := src.Agent.VerifyEvidence(req)
	t1 := time.Now()
	tr.add("aa.verify_evidence", root, r.round, 1, t0, t1)
	if err != nil {
		st.fail("round %d replay evidence: %v", r.round, err)
	}
}

// replayComplain times the evidence check, the source engine handling
// the captured shutoff request (on the shadow engine), and the
// receipt check.
func (r *ctrlRig) replayComplain(st *ctrlStats, tr *tracer, root int32, src *apna.AS, victim *apna.OwnedEphID, m apna.Message, rcpt *apna.ShutoffReceipt) {
	if tr == nil {
		return
	}
	r.replayEvidence(st, tr, root, src, victim, m)
	if len(r.lastReq) == 0 {
		st.fail("round %d: no shutoff request crossed an inter-AS link", r.round)
	} else {
		t0 := time.Now()
		sr, err := r.shadow[src.AID].HandleShutoffRequest(r.lastReq)
		t1 := time.Now()
		tr.add("acct.shutoff_request", root, r.round, 1, t0, t1)
		if err != nil || sr.Status != apna.ShutoffRevoked {
			st.fail("round %d replay shutoff request: %v", r.round, err)
		}
	}
	t0 := time.Now()
	err := rcpt.Verify(r.in.Trust, r.in.Now())
	t1 := time.Now()
	tr.add("acct.receipt_verify", root, r.round, 1, t0, t1)
	if err != nil {
		st.fail("round %d replay receipt: %v", r.round, err)
	}
}
