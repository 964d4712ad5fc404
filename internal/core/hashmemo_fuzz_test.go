package core

import (
	"testing"

	"jenga/internal/model"
)

// FuzzHashMemo drives the per-scope prefix-hash memo through every way
// a caller may change Sequence.Tokens between lookups, on a two-scope
// multimodal spec (text self-attention plus image cross-attention)
// with a warm prefix cache. Each byte is one op on one of two sequence
// slots: the low three bits pick the op, bit 3 the slot, the high four
// bits its argument.
//
//	0 append a text token       1 append an image token
//	2 append the warm prompt's next token (so lookups can hit)
//	3 append then roll back one token (a failed decode reservation)
//	4 truncate a tail appended since the slot's last Lookup
//	5 alias the other slot's backing array under a new ID
//	6, 7 Lookup
//
// After every op each scope's memo must equal PrefixHash over that
// scope's projection of the sequence it covers, at every position; and
// every Lookup must return what it returns with the memo cleared.
func FuzzHashMemo(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x02, 0x02, 0x02, 0x06, 0x02, 0x02, 0x06})
	f.Add([]byte{0x02, 0x02, 0x02, 0x06, 0x13, 0x06, 0x00, 0x01, 0x14, 0x06})
	f.Add([]byte{0x02, 0x02, 0x02, 0x02, 0x06, 0x0d, 0x0e, 0x0a, 0x0e, 0x06, 0x02, 0x06})
	warm := warmMultimodal(48)
	const maxLen = 64 // bounds the quadratic PrefixHash check
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newMgr(t, fig6Spec(), 1<<20, 2, true)
		w := &Sequence{ID: 1, Tokens: warm, PromptLen: len(warm)}
		if err := m.Reserve(w, len(warm), 1); err != nil {
			t.Fatal(err)
		}
		m.Commit(w, len(warm), 1)
		m.Release(w, true)

		type slot struct {
			seq *Sequence
			// floor is the length the slot may not truncate below: its
			// length at its last Lookup, or where an alias shares its
			// backing array.
			floor int
		}
		nextID := RequestID(2)
		var slots [2]slot
		for i := range slots {
			slots[i].seq = &Sequence{ID: nextID}
			nextID++
		}
		covered := w // the sequence the memos last saw (the warm claim's lookup)
		for i, b := range data {
			s := &slots[(b>>3)&1]
			seq, arg := s.seq, int(b>>4)
			appendTok := func(tok Token) {
				if len(seq.Tokens) < maxLen {
					seq.Tokens = append(seq.Tokens, tok)
				}
			}
			switch b & 7 {
			case 0:
				appendTok(Token{ID: int32(arg%4 + 1)})
			case 1:
				appendTok(Token{ID: int32(arg%4 + 1), Image: true})
			case 2:
				appendTok(warm[len(seq.Tokens)%len(warm)])
			case 3:
				n := len(seq.Tokens)
				seq.Tokens = append(seq.Tokens, Token{ID: int32(arg)})
				seq.Tokens = seq.Tokens[:n]
			case 4:
				n := max(len(seq.Tokens)-arg%4-1, s.floor)
				seq.Tokens = seq.Tokens[:n]
			case 5:
				o := &slots[1-(b>>3)&1]
				n := len(o.seq.Tokens)
				// Capped so neither slot's appends land in the other's
				// view; both keep the shared region.
				s.seq = &Sequence{ID: nextID, Tokens: o.seq.Tokens[:n:n]}
				nextID++
				s.floor = n
				o.floor = max(o.floor, n)
			default:
				got := m.Lookup(seq)
				saved := m.memos
				m.memos = [3]hashMemo{}
				want := m.Lookup(seq)
				m.memos = saved
				if got != want {
					t.Fatalf("op %d: Lookup = %d with the memo, %d rebuilt cold", i, got, want)
				}
				s.floor = max(s.floor, len(seq.Tokens))
				if len(seq.Tokens) >= 2 { // shorter sequences skip the views
					covered = seq
				}
			}
			checkMemos(t, m, covered, i)
		}
	})
}

// checkMemos asserts every scope memo m holds matches a cold walk of
// the sequence it covers.
func checkMemos(t *testing.T, m *Jenga, covered *Sequence, op int) {
	t.Helper()
	for scope := range m.memos {
		h := &m.memos[scope]
		if h.n == 0 {
			continue
		}
		g := model.KVGroup{Scope: model.TokenScope(scope)}
		toks := covered.Tokens[:h.n]
		var proj []Token
		for i, tok := range toks {
			if g.StoresToken(tok.Image) {
				proj = append(proj, tok)
			}
			if h.projCount[i+1] != len(proj) {
				t.Fatalf("op %d: scope %v ProjCount[%d] = %d, want %d",
					op, g.Scope, i+1, h.projCount[i+1], len(proj))
			}
		}
		if len(h.chain) != len(proj) {
			t.Fatalf("op %d: scope %v chain covers %d tokens, want %d", op, g.Scope, len(h.chain), len(proj))
		}
		for pos := 0; pos <= len(proj); pos++ {
			if h.at(pos) != PrefixHash(proj, pos) {
				t.Fatalf("op %d: scope %v chain at %d differs from PrefixHash", op, g.Scope, pos)
			}
		}
	}
}

// warmMultimodal builds a prompt of alternating text and image runs
// over a four-token alphabet.
func warmMultimodal(n int) []Token {
	toks := make([]Token, n)
	for i := range toks {
		toks[i] = Token{ID: int32(i%4 + 1), Image: i%10 >= 6}
	}
	return toks
}
