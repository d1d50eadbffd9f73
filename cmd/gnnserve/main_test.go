package main

import "testing"

// TestParseAlphas covers the -alphas list parser.
func TestParseAlphas(t *testing.T) {
	got, err := parseAlphas(" 0, 0.08 ,0.32,")
	if err != nil || len(got) != 3 || got[0] != 0 || got[1] != 0.08 || got[2] != 0.32 {
		t.Fatalf("parseAlphas: %v, %v", got, err)
	}
	if _, err := parseAlphas("0,-0.1"); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := parseAlphas("0,x"); err == nil {
		t.Fatal("garbage alpha accepted")
	}
}
