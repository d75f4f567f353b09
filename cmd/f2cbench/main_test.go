package main

import "testing"

func TestExperimentsRun(t *testing.T) {
	for _, exp := range []string{"table1", "fig6", "fig7", "compress", "advantages"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run([]string{"-exp", exp, "-seed", "3"}); err != nil {
				t.Fatalf("run(%s): %v", exp, err)
			}
		})
	}
}

func TestDaysimRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("daysim is seconds-long")
	}
	if err := run([]string{"-exp", "daysim", "-scale", "4000", "-duration", "30m"}); err != nil {
		t.Fatalf("daysim: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-exp", "warp-drive"},
		{"-codec", "lzma"},
		{"-bogus-flag"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestParseCodec(t *testing.T) {
	for _, name := range []string{"none", "flate", "gzip", "zip"} {
		if _, err := parseCodec(name); err != nil {
			t.Errorf("parseCodec(%s): %v", name, err)
		}
	}
	if _, err := parseCodec("brotli"); err == nil {
		t.Error("expected error")
	}
}
