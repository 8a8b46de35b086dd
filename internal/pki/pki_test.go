package pki

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/model"
)

// suites returns both suite implementations so every behavioural test runs
// against each (size parity between them is itself a tested property).
func suites(t *testing.T) map[string]Suite {
	t.Helper()
	return map[string]Suite{
		"rsa":  NewRSASuite(1024), // small keys keep tests fast
		"fast": NewFastSuite(),
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, err := s.NewIdentity(1)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("Serve, R, A, B, ...")
			sig, err := id.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if len(sig) != s.SignatureSize() {
				t.Fatalf("signature %d bytes, want %d", len(sig), s.SignatureSize())
			}
			if err := s.Verify(1, msg, sig); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			msg := []byte("original")
			sig, _ := id.Sign(msg)
			if err := s.Verify(1, []byte("tampered"), sig); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("tampered message: err = %v, want ErrBadSignature", err)
			}
		})
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			msg := []byte("message")
			sig, _ := id.Sign(msg)
			sig[0] ^= 0xFF
			if err := s.Verify(1, msg, sig); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("tampered signature: err = %v", err)
			}
		})
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := s.NewIdentity(1)
			if _, err := s.NewIdentity(2); err != nil {
				t.Fatal(err)
			}
			msg := []byte("message")
			sig, _ := a.Sign(msg)
			if err := s.Verify(2, msg, sig); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("wrong signer: err = %v", err)
			}
		})
	}
}

func TestVerifyUnknownNode(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Verify(99, []byte("m"), []byte("sig")); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("err = %v, want ErrUnknownNode", err)
			}
			if _, err := s.Encrypt(99, []byte("m")); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("Encrypt err = %v, want ErrUnknownNode", err)
			}
		})
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			msg := bytes.Repeat([]byte{0xAB}, model.UpdateBytes) // update-sized
			ct, err := s.Encrypt(1, msg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(ct)-len(msg), s.CiphertextOverhead(); got != want {
				t.Fatalf("ciphertext overhead %d, want %d", got, want)
			}
			pt, err := id.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pt, msg) {
				t.Fatal("round-trip mismatch")
			}
		})
	}
}

func TestDecryptRejectsTampering(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			ct, _ := s.Encrypt(1, []byte("private update"))
			ct[len(ct)-1] ^= 0x01
			if _, err := id.Decrypt(ct); !errors.Is(err, ErrBadCiphertext) {
				t.Fatalf("err = %v, want ErrBadCiphertext", err)
			}
		})
	}
}

func TestDecryptRejectsShortCiphertext(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			if _, err := id.Decrypt([]byte{1, 2, 3}); !errors.Is(err, ErrBadCiphertext) {
				t.Fatalf("err = %v, want ErrBadCiphertext", err)
			}
		})
	}
}

func TestDecryptWrongRecipient(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.NewIdentity(1); err != nil {
				t.Fatal(err)
			}
			b, _ := s.NewIdentity(2)
			ct, _ := s.Encrypt(1, []byte("for node 1 only"))
			if _, err := b.Decrypt(ct); err == nil {
				t.Fatal("node 2 decrypted node 1's ciphertext")
			}
		})
	}
}

func TestNoNodeIdentityRejected(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.NewIdentity(model.NoNode); err == nil {
				t.Fatal("NoNode identity accepted")
			}
		})
	}
}

// TestSizeParity is the property the FastSuite substitution rests on: both
// suites must produce identical signature sizes and ciphertext overheads,
// because the paper's headline metric is bandwidth.
func TestSizeParity(t *testing.T) {
	real := NewRSASuite(DefaultRSABits)
	fast := NewFastSuite()
	if real.SignatureSize() != fast.SignatureSize() {
		t.Fatalf("signature sizes differ: %d vs %d",
			real.SignatureSize(), fast.SignatureSize())
	}
	if real.CiphertextOverhead() != fast.CiphertextOverhead() {
		t.Fatalf("ciphertext overheads differ: %d vs %d",
			real.CiphertextOverhead(), fast.CiphertextOverhead())
	}
	// Paper: "Signatures are generated using RSA-2048" → 256 bytes.
	if real.SignatureSize() != 256 {
		t.Fatalf("RSA-2048 signature = %d bytes, want 256", real.SignatureSize())
	}
}

func TestCounters(t *testing.T) {
	s := NewFastSuite()
	id, _ := s.NewIdentity(1)
	ops := id.Counter()

	if _, err := id.Sign([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if got := ops.Signs(); got != 1 {
		t.Fatalf("Signs = %d, want 1", got)
	}

	sig, _ := id.Sign([]byte("m2"))
	if err := VerifyCounted(s, ops, 1, []byte("m2"), sig); err != nil {
		t.Fatal(err)
	}
	if got := ops.Verifies(); got != 1 {
		t.Fatalf("Verifies = %d, want 1", got)
	}

	ct, err := EncryptCounted(s, ops, 1, []byte("m3"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ops.Encrypts(); got != 1 {
		t.Fatalf("Encrypts = %d, want 1", got)
	}
	if _, err := id.Decrypt(ct); err != nil {
		t.Fatal(err)
	}
	if got := ops.Decrypts(); got != 1 {
		t.Fatalf("Decrypts = %d, want 1", got)
	}

	ops.Reset()
	if ops.Signs()+ops.Verifies()+ops.Encrypts()+ops.Decrypts() != 0 {
		t.Fatal("Reset failed")
	}

	var nilC *Counter
	if nilC.Signs()+nilC.Verifies()+nilC.Encrypts()+nilC.Decrypts() != 0 {
		t.Fatal("nil counter should read zero")
	}
	nilC.Reset()
}

func TestSuiteNames(t *testing.T) {
	if got := NewRSASuite(2048).Name(); got != "rsa-2048" {
		t.Fatalf("Name = %q", got)
	}
	if got := NewFastSuite().Name(); got != "fast" {
		t.Fatalf("Name = %q", got)
	}
}

func TestEmptyMessageEncrypt(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			ct, err := s.Encrypt(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := id.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if len(pt) != 0 {
				t.Fatalf("decrypted %d bytes, want 0", len(pt))
			}
		})
	}
}

func BenchmarkRSASign2048(b *testing.B) {
	s := NewRSASuite(DefaultRSABits)
	id, err := s.NewIdentity(1)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := id.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFastTagsMatchHMAC: FastSuite signatures are HMAC-SHA256 under the
// node secret, repeated to the RSA signature width, and ciphertexts open
// under AES-GCM keyed by HMAC(secret, "pag-enc-key") — the bytes a
// per-call hmac.New gives, for keys shorter and longer than a block.
func TestFastTagsMatchHMAC(t *testing.T) {
	s := NewFastSuite()
	for _, keyLen := range []int{32, 100} {
		secret := make([]byte, keyLen)
		for i := range secret {
			secret[i] = byte(7*i + keyLen)
		}
		id, err := s.register(model.NodeID(keyLen), secret)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 63, 64, 65, 4096} {
			msg := make([]byte, n)
			for i := range msg {
				msg[i] = byte(i * 31)
			}
			h := hmac.New(sha256.New, secret)
			h.Write(msg)
			want := bytes.Repeat(h.Sum(nil), s.SignatureSize()/sha256.Size)
			sig, err := id.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sig, want) {
				t.Fatalf("key %d bytes, msg %d bytes: signature differs from padded hmac.New tag", keyLen, n)
			}
			if err := s.Verify(id.NodeID(), msg, sig); err != nil {
				t.Fatalf("key %d bytes, msg %d bytes: %v", keyLen, n, err)
			}
		}

		h := hmac.New(sha256.New, secret)
		h.Write([]byte("pag-enc-key"))
		block, err := aes.NewCipher(h.Sum(nil))
		if err != nil {
			t.Fatal(err)
		}
		gcm, err := cipher.NewGCM(block)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("update payload")
		ct, err := s.Encrypt(id.NodeID(), msg)
		if err != nil {
			t.Fatal(err)
		}
		w := s.wrapSize
		if !bytes.Equal(ct[:w], make([]byte, w)) {
			t.Fatal("key-wrap block is not zero-filled")
		}
		pt, err := gcm.Open(nil, ct[w:w+_gcmNonceLen], ct[w+_gcmNonceLen:], nil)
		if err != nil || !bytes.Equal(pt, msg) {
			t.Fatalf("ciphertext does not open under HMAC(secret, \"pag-enc-key\"): %v", err)
		}
	}
}

// TestFastRejoinReplacesKeys: a second NewIdentity for one id — a
// re-joined node — replaces the id's keys whole. Signatures under the old
// identity stop verifying, the new one's verify, and neither identity
// opens what was sealed to the other's key.
func TestFastRejoinReplacesKeys(t *testing.T) {
	s := NewFastSuite()
	msg := []byte("Serve, R, A, B")
	old, err := s.NewIdentity(7)
	if err != nil {
		t.Fatal(err)
	}
	oldSig, _ := old.Sign(msg)
	oldCT, err := s.Encrypt(7, msg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.NewIdentity(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(7, msg, oldSig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("old signature after rejoin: err = %v, want ErrBadSignature", err)
	}
	newSig, _ := fresh.Sign(msg)
	if err := s.Verify(7, msg, newSig); err != nil {
		t.Fatalf("new signature: %v", err)
	}
	if _, err := fresh.Decrypt(oldCT); !errors.Is(err, ErrBadCiphertext) {
		t.Fatalf("old ciphertext opened by new identity: err = %v", err)
	}
	newCT, err := s.Encrypt(7, msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Decrypt(newCT); !errors.Is(err, ErrBadCiphertext) {
		t.Fatalf("new ciphertext opened by old identity: err = %v", err)
	}
	if pt, err := fresh.Decrypt(newCT); err != nil || !bytes.Equal(pt, msg) {
		t.Fatalf("new identity cannot open its own ciphertext: %v", err)
	}
}

// TestFastSuiteConcurrent drives Sign, Verify, Encrypt and Decrypt over
// 16 identities from 8 goroutines: the pooled hash states and the shared
// AEADs must not race (run with -race).
func TestFastSuiteConcurrent(t *testing.T) {
	s := NewFastSuite()
	ids := make([]Identity, 16)
	for i := range ids {
		id, err := s.NewIdentity(model.NodeID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				from, to := ids[(g+i)%len(ids)], ids[(3*g+i+1)%len(ids)]
				msg := []byte(fmt.Sprintf("g%d i%d", g, i))
				sig, err := from.Sign(msg)
				if err == nil {
					err = s.Verify(from.NodeID(), msg, sig)
				}
				var ct, pt []byte
				if err == nil {
					ct, err = s.Encrypt(to.NodeID(), msg)
				}
				if err == nil {
					pt, err = to.Decrypt(ct)
				}
				if err == nil && !bytes.Equal(pt, msg) {
					err = fmt.Errorf("goroutine %d: decrypted %q, want %q", g, pt, msg)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkFastSign(b *testing.B) {
	s := NewFastSuite()
	id, _ := s.NewIdentity(1)
	msg := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := id.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastVerify(b *testing.B) {
	s := NewFastSuite()
	id, _ := s.NewIdentity(1)
	msg := make([]byte, 256)
	sig, _ := id.Sign(msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Verify(1, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastEncrypt(b *testing.B) {
	s := NewFastSuite()
	s.NewIdentity(1)
	msg := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encrypt(1, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastDecrypt(b *testing.B) {
	s := NewFastSuite()
	id, _ := s.NewIdentity(1)
	ct, err := s.Encrypt(1, make([]byte, 1024))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := id.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}
