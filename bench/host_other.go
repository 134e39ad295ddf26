//go:build !linux

package main

import "os/exec"

func fsName(string) string { return "unknown filesystem" }

func dieWithParent(*exec.Cmd) {}
