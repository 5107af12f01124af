package vm

// Peephole optimizer: fuses adjacent instruction pairs and car/cdr runs
// into the superinstructions of ops.go. It runs on one compiled unit (a
// function body or a batch of top-level forms, entered at index 0) after
// its jumps have been resolved, computes the set of branch-target
// program counters, and never fuses across one — a fused pair with a
// jump into its middle would change meaning. Jump targets are remapped
// through an old→new index table; the instruction after each FCALL is a
// live return address. FCALL targets lie outside the unit and are left
// to the linker.
//
// Fusions (all trace- and refcount-equivalent to the unfused sequence):
//
//	CAROP/CDROP run (>=2)   -> CADR | CADDR | CXR steps/mask
//	PUSHSTK n; CAROP|CDROP  -> CARSTK n | CDRSTK n   (single accessor only)
//	PUSHSYM int; ADDOP|SUBOP-> ADDIMM | SUBIMM
//	SETQ n; POP             -> SETQPOP n
//	PUSHSTK|PUSHSYM; POP    -> (removed: a pure push/pop pair is a no-op)
func optimize(code []Instr) []Instr {
	isTarget := make([]bool, len(code)+1)
	isTarget[0] = true
	for i, ins := range code {
		switch ins.Op {
		case OpJump, OpBrNil, OpNEqualP:
			isTarget[ins.Target] = true
		case OpFCall:
			isTarget[i+1] = true // FRETN returns here
		}
	}

	// accessorRun measures the fusable car/cdr run starting at j: it may
	// begin at a target but must not cross one.
	accessorRun := func(j int) (steps int, mask uint8) {
		for j+steps < len(code) && steps < 8 {
			at := j + steps
			if steps > 0 && isTarget[at] {
				break
			}
			switch code[at].Op {
			case OpCar:
				mask |= 1 << steps
			case OpCdr:
			default:
				return steps, mask
			}
			steps++
		}
		return steps, mask
	}

	newCode := make([]Instr, 0, len(code))
	old2new := make([]int, len(code)+1)
	i := 0
	for i < len(code) {
		old2new[i] = len(newCode)
		ins := code[i]
		next := Instr{Op: OpHalt}
		havePair := i+1 < len(code) && !isTarget[i+1]
		if havePair {
			next = code[i+1]
		}

		switch {
		case havePair && ins.Op == OpPushStk &&
			(next.Op == OpCar || next.Op == OpCdr):
			// Prefer run fusion when the accessors chain further.
			if steps, _ := accessorRun(i + 1); steps == 1 {
				op := OpCdrStk
				if next.Op == OpCar {
					op = OpCarStk
				}
				old2new[i+1] = len(newCode)
				newCode = append(newCode, Instr{Op: op, Arg: ins.Arg})
				i += 2
				continue
			}

		case havePair && ins.Op == OpPushSym && ins.Sym == "" &&
			(next.Op == OpAdd || next.Op == OpSub):
			op := OpSubImm
			if next.Op == OpAdd {
				op = OpAddImm
			}
			old2new[i+1] = len(newCode)
			newCode = append(newCode, Instr{Op: op, Arg: ins.Arg})
			i += 2
			continue

		case havePair && ins.Op == OpSetq && next.Op == OpPop:
			old2new[i+1] = len(newCode)
			newCode = append(newCode, Instr{Op: OpSetqPop, Arg: ins.Arg})
			i += 2
			continue

		case havePair && next.Op == OpPop &&
			(ins.Op == OpPushStk || ins.Op == OpPushSym):
			// Dead statement value: push immediately followed by pop is a
			// refcount-neutral no-op (both are side-effect free).
			old2new[i+1] = len(newCode)
			i += 2
			continue
		}

		if ins.Op == OpCar || ins.Op == OpCdr {
			if steps, mask := accessorRun(i); steps >= 2 {
				for k := i; k < i+steps; k++ {
					old2new[k] = len(newCode)
				}
				switch {
				case steps == 2 && mask == 0b10:
					newCode = append(newCode, Instr{Op: OpCadr})
				case steps == 3 && mask == 0b100:
					newCode = append(newCode, Instr{Op: OpCaddr})
				default:
					newCode = append(newCode, Instr{Op: OpCxr, Arg: cxrArg(steps, mask)})
				}
				i += steps
				continue
			}
		}

		newCode = append(newCode, ins)
		i++
	}
	old2new[len(code)] = len(newCode)

	for j := range newCode {
		switch newCode[j].Op {
		case OpJump, OpBrNil, OpNEqualP:
			newCode[j].Target = int32(old2new[newCode[j].Target])
		}
	}
	return newCode
}
