//go:build !linux

package main

import (
	"errors"
	"time"
)

func allowedCPUs() []int { return nil }

func pinSelf([]int) error { return errors.ErrUnsupported }

func selfCPU() time.Duration { return 0 }
