package main

import (
	"strings"
	"testing"
	"time"
)

func TestValidateRejectsNegativeBounds(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string // substring of the error, naming the offending flag
	}{
		{"workers", func(o *options) { o.workers = -1 }, "-workers"},
		{"queue", func(o *options) { o.queueDepth = -8 }, "-queue"},
		{"cache", func(o *options) { o.cacheEntries = -2 }, "-cache"},
		{"retention", func(o *options) { o.retention = -100 }, "-retention"},
		{"replicas", func(o *options) { o.replicas = -4 }, "-replicas"},
		{"store-bytes", func(o *options) { o.dataDir = "d"; o.storeBytes = -1 }, "-store-bytes"},
		{"grace", func(o *options) { o.grace = -time.Second }, "-grace"},
		{"default-timeout", func(o *options) { o.defaultTimeout = -time.Minute }, "-default-timeout"},
		{"steal-interval", func(o *options) { o.stealInterval = -time.Millisecond }, "-steal-interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := options{addr: "127.0.0.1:8080"}
			tc.mut(&o)
			err := o.validate()
			if err == nil {
				t.Fatalf("%s: negative value must be rejected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

func TestValidateClusterAndStoreCoupling(t *testing.T) {
	// -store-bytes without -data-dir is a configuration contradiction.
	o := options{addr: "a:1", storeBytes: 1 << 20}
	if err := o.validate(); err == nil || !strings.Contains(err.Error(), "-data-dir") {
		t.Fatalf("store-bytes without data-dir: got %v", err)
	}
	// -advertise without -peers likewise.
	o = options{addr: "a:1", advertise: "a:1"}
	if err := o.validate(); err == nil || !strings.Contains(err.Error(), "-peers") {
		t.Fatalf("advertise without peers: got %v", err)
	}
	// The advertise address must appear in the membership.
	o = options{addr: "a:1", peers: "b:2,c:3"}
	if err := o.validate(); err == nil || !strings.Contains(err.Error(), "a:1") {
		t.Fatalf("self missing from peers: got %v", err)
	}
}

func TestValidateAcceptsWorkingConfigs(t *testing.T) {
	good := []options{
		{addr: "127.0.0.1:8080"},
		{addr: "127.0.0.1:9001", dataDir: "/tmp/x", storeBytes: 1 << 20},
		{addr: "127.0.0.1:9001", peers: "127.0.0.1:9001,127.0.0.1:9002"},
		{addr: ":0", advertise: "10.0.0.1:9001", peers: "10.0.0.1:9001, 10.0.0.2:9001"},
	}
	for i, o := range good {
		if err := o.validate(); err != nil {
			t.Errorf("config %d rejected: %v", i, err)
		}
	}
}

func TestPeerListParsing(t *testing.T) {
	o := options{peers: " a:1 , b:2 ,c:3"}
	got := o.peerList()
	if len(got) != 3 || got[0] != "a:1" || got[1] != "b:2" || got[2] != "c:3" {
		t.Fatalf("peerList: %v", got)
	}
	if (&options{}).peerList() != nil {
		t.Fatal("empty -peers must mean single-node")
	}
	o = options{addr: "x:1", peers: "x:1,,y:2"}
	if err := o.validate(); err == nil {
		t.Fatal("empty peer entry must be rejected")
	}
}
