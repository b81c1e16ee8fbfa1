package persist

import (
	"reflect"
	"testing"
)

func TestLeaseRecordCodec(t *testing.T) {
	rec := LeaseRecord{Holder: "router-a", Gen: 17, ExpireNano: 1700000000123456789}
	b := EncodeLease(rec)
	if b[0] != RecLease {
		t.Fatalf("type byte %d, want %d", b[0], RecLease)
	}
	dec, err := DecodeLease(b[1:])
	if err != nil || dec != rec {
		t.Fatalf("round trip: %+v %v", dec, err)
	}
	// A journaled release: empty holder, gen preserved.
	rel := LeaseRecord{Holder: "", Gen: 17, ExpireNano: 0}
	dec, err = DecodeLease(EncodeLease(rel)[1:])
	if err != nil || dec != rel {
		t.Fatalf("release round trip: %+v %v", dec, err)
	}
	if _, err := DecodeLease(nil); err == nil {
		t.Fatal("truncated lease record must fail")
	}
	if _, err := DecodeLease([]byte{0x02, 'a'}); err == nil {
		t.Fatal("lease record cut inside the holder must fail")
	}
}

func TestViewRecordCodec(t *testing.T) {
	rec := ViewRecord{
		Epoch: 23,
		Members: []ViewMember{
			{Name: "a", URL: "http://h1:8080", Dir: "/shared/a", State: StateIn},
			{Name: "b", URL: "http://h2:8080", Dir: "", State: StateDraining},
			{Name: "c", URL: "http://h3:8080", Dir: "/shared/c", State: StateEjected},
		},
	}
	b := EncodeView(rec)
	if b[0] != RecView {
		t.Fatalf("type byte %d, want %d", b[0], RecView)
	}
	dec, err := DecodeView(b[1:])
	if err != nil || !reflect.DeepEqual(dec, rec) {
		t.Fatalf("round trip: %+v %v", dec, err)
	}
	if got := dec.RingMembers(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("RingMembers = %v, want in + draining members", got)
	}
	if m, ok := dec.Member("c"); !ok || m.State != StateEjected {
		t.Fatalf("Member(c) = %+v, %v", m, ok)
	}
	if _, ok := dec.Member("zz"); ok {
		t.Fatal("Member must report absence")
	}
	if _, err := DecodeView(nil); err == nil {
		t.Fatal("truncated view record must fail")
	}
	bad := EncodeView(ViewRecord{Epoch: 1, Members: []ViewMember{{Name: "x", State: "bogus"}}})
	if _, err := DecodeView(bad[1:]); err == nil {
		t.Fatal("unknown member state must fail decode")
	}
}

func TestViewCloneDoesNotAlias(t *testing.T) {
	v := ViewRecord{Epoch: 1, Members: []ViewMember{{Name: "a", State: StateIn}}}
	c := v.Clone()
	c.Members[0].State = StateEjected
	c.Epoch = 9
	if v.Members[0].State != StateIn || v.Epoch != 1 {
		t.Fatal("Clone aliased the original view")
	}
}
