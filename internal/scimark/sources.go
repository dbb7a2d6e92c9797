package scimark

import "fmt"

// Problem sizes. They are scaled down from SciMark 2.0's defaults so
// that a full benchmark sweep (five kernels, three engines, many
// repetitions) completes quickly under the interpreting VM; the
// kernels themselves are the same algorithms.
const (
	SORSize  = 32
	SORIters = 20
	MCPoints = 20000
	SMMRows  = 256
	SMMNzRow = 8
	SMMIters = 20
	LUSize   = 32
	FFTSize  = 256
)

// LCG parameters shared by the VM and Go implementations of the Monte
// Carlo kernel (java.util.Random's multiplier, for flavor).
const (
	lcgA    = 25214903917
	lcgC    = 11
	lcgMask = (1 << 48) - 1
	lcgSeed = 20011
)

// sorSource is the Jacobi successive over-relaxation kernel: a
// five-point stencil swept over a SIZE x SIZE grid.
func sorSource() string {
	size := SORSize
	return fmt.Sprintf(`
.program sor
.global out
.func main 0 6
    iconst %[1]d        ; SIZE*SIZE
    newarr float
    store 0
    iconst 0
    store 2
init:
    load 2
    iconst %[1]d
    if_icmpge initdone
    load 0
    load 2
    load 2
    lconst 2654435761
    imul
    iconst 1023
    iand
    i2f
    fconst 1024.0
    fdiv
    astore
    iinc 2 1
    goto init
initdone:
    iconst 0
    store 1
piter:
    load 1
    iconst %[2]d        ; ITERS
    if_icmpge sumup
    iconst 1
    store 2
iloop:
    load 2
    iconst %[3]d        ; SIZE-1
    if_icmpge inext
    iconst 1
    store 3
jloop:
    load 3
    iconst %[3]d
    if_icmpge jnext
    load 2
    iconst %[4]d        ; SIZE
    imul
    load 3
    iadd
    store 4
    load 0
    load 4
    iconst %[4]d
    isub
    aload
    load 0
    load 4
    iconst %[4]d
    iadd
    aload
    fadd
    load 0
    load 4
    iconst 1
    isub
    aload
    fadd
    load 0
    load 4
    iconst 1
    iadd
    aload
    fadd
    fconst 0.3125       ; omega/4, omega = 1.25
    fmul
    load 0
    load 4
    aload
    fconst -0.25        ; 1 - omega
    fmul
    fadd
    store 5
    load 0
    load 4
    load 5
    astore
    iinc 3 1
    goto jloop
jnext:
    iinc 2 1
    goto iloop
inext:
    iinc 1 1
    goto piter
sumup:
    fconst 0
    store 5
    iconst 0
    store 2
sloop:
    load 2
    iconst %[1]d
    if_icmpge done
    load 5
    load 0
    load 2
    aload
    fadd
    store 5
    iinc 2 1
    goto sloop
done:
    load 5
    gput out
    ret
.end
`, size*size, SORIters, size-1, size)
}

// mcSource is the Monte Carlo pi integration with an inlined LCG, so
// the random stream is identical in the VM and Go implementations.
func mcSource() string {
	return fmt.Sprintf(`
.program mc
.global out
.func main 0 6
    lconst %[1]d        ; seed
    store 0
    iconst 0
    store 1
    iconst 0
    store 2
loop:
    load 1
    iconst %[2]d        ; N
    if_icmpge done
    load 0
    lconst %[3]d
    imul
    iconst %[4]d
    iadd
    lconst %[5]d
    iand
    store 0
    load 0
    iconst 16
    ishr
    i2f
    fconst 4294967296.0
    fdiv
    store 3
    load 0
    lconst %[3]d
    imul
    iconst %[4]d
    iadd
    lconst %[5]d
    iand
    store 0
    load 0
    iconst 16
    ishr
    i2f
    fconst 4294967296.0
    fdiv
    store 4
    load 3
    load 3
    fmul
    load 4
    load 4
    fmul
    fadd
    fconst 1.0
    fcmp
    ifgt skip
    iinc 2 1
skip:
    iinc 1 1
    goto loop
done:
    load 2
    i2f
    fconst 4.0
    fmul
    iconst %[2]d
    i2f
    fdiv
    gput out
    ret
.end
`, lcgSeed, MCPoints, int64(lcgA), lcgC, int64(lcgMask))
}

// smmSource is the sparse matrix multiply: a fixed-degree sparse
// matrix in row-major nonzero order, applied repeatedly to a vector.
func smmSource() string {
	return fmt.Sprintf(`
.program smm
.global out
.func main 0 9
    ; locals: 0=val 1=col 2=x 3=y 4=r 5=k 6=acc 7=iter 8=idx
    iconst %[1]d        ; ROWS*NZROW
    newarr float
    store 0
    iconst %[1]d
    newarr int
    store 1
    iconst %[2]d        ; ROWS
    newarr float
    store 2
    iconst %[2]d
    newarr float
    store 3
    iconst 0
    store 4
vinit:
    load 4
    iconst %[1]d
    if_icmpge cinitset
    load 0
    load 4
    load 4
    iconst 7
    irem
    iconst 1
    iadd
    i2f
    fconst 0.5
    fmul
    astore
    load 1
    load 4
    load 4
    iconst 1031
    imul
    load 4
    iconst %[3]d        ; NZROW
    idiv
    iadd
    iconst %[2]d
    irem
    astore
    iinc 4 1
    goto vinit
cinitset:
    iconst 0
    store 4
xinit:
    load 4
    iconst %[2]d
    if_icmpge iters
    load 2
    load 4
    load 4
    iconst 15
    iand
    iconst 1
    iadd
    i2f
    fconst 0.25
    fmul
    astore
    iinc 4 1
    goto xinit
iters:
    iconst 0
    store 7
titer:
    load 7
    iconst %[4]d        ; ITERS
    if_icmpge sumup
    iconst 0
    store 4
rloop:
    load 4
    iconst %[2]d
    if_icmpge tnext
    fconst 0
    store 6
    iconst 0
    store 5
kloop:
    load 5
    iconst %[3]d
    if_icmpge rdone
    load 4
    iconst %[3]d
    imul
    load 5
    iadd
    store 8
    load 6
    load 0
    load 8
    aload
    load 2
    load 1
    load 8
    aload
    aload
    fmul
    fadd
    store 6
    iinc 5 1
    goto kloop
rdone:
    load 3
    load 4
    load 6
    astore
    iinc 4 1
    goto rloop
tnext:
    iinc 7 1
    goto titer
sumup:
    fconst 0
    store 6
    iconst 0
    store 4
sloop:
    load 4
    iconst %[2]d
    if_icmpge done
    load 6
    load 3
    load 4
    aload
    fadd
    store 6
    iinc 4 1
    goto sloop
done:
    load 6
    gput out
    ret
.end
`, SMMRows*SMMNzRow, SMMRows, SMMNzRow, SMMIters)
}

// luSource is the LU factorization (Doolittle, no pivoting) of a
// diagonally dominant matrix; the checksum is the diagonal sum.
func luSource() string {
	n := LUSize
	return fmt.Sprintf(`
.program lu
.global out
.func main 0 9
    ; locals: 0=a 1=kk 2=i 3=j 4=tmpf 5=ik 6=kj 7=ij 8=diag-sum
    iconst %[1]d        ; N*N
    newarr float
    store 0
    iconst 0
    store 2
init:
    load 2
    iconst %[1]d
    if_icmpge diag
    load 0
    load 2
    load 2
    lconst 2654435761
    imul
    iconst 255
    iand
    i2f
    fconst 256.0
    fdiv
    astore
    iinc 2 1
    goto init
diag:
    iconst 0
    store 2
dloop:
    load 2
    iconst %[2]d        ; N
    if_icmpge factor
    load 2
    iconst %[2]d
    imul
    load 2
    iadd
    store 7
    load 0
    load 7
    load 0
    load 7
    aload
    fconst %[3]d.0      ; + N on the diagonal
    fadd
    astore
    iinc 2 1
    goto dloop
factor:
    iconst 0
    store 1
kloop:
    load 1
    iconst %[2]d
    if_icmpge sumdiag
    load 1
    iconst 1
    iadd
    store 2
iloop:
    load 2
    iconst %[2]d
    if_icmpge knext
    ; a[i*N+k] /= a[k*N+k]
    load 2
    iconst %[2]d
    imul
    load 1
    iadd
    store 5
    load 0
    load 5
    load 0
    load 5
    aload
    load 0
    load 1
    iconst %[2]d
    imul
    load 1
    iadd
    aload
    fdiv
    astore
    ; for j in k+1..N-1: a[i*N+j] -= a[i*N+k]*a[k*N+j]
    load 1
    iconst 1
    iadd
    store 3
jloop:
    load 3
    iconst %[2]d
    if_icmpge inext
    load 2
    iconst %[2]d
    imul
    load 3
    iadd
    store 7
    load 1
    iconst %[2]d
    imul
    load 3
    iadd
    store 6
    load 0
    load 7
    load 0
    load 7
    aload
    load 0
    load 5
    aload
    load 0
    load 6
    aload
    fmul
    fsub
    astore
    iinc 3 1
    goto jloop
inext:
    iinc 2 1
    goto iloop
knext:
    iinc 1 1
    goto kloop
sumdiag:
    fconst 0
    store 4
    iconst 0
    store 2
sloop:
    load 2
    iconst %[2]d
    if_icmpge done
    load 4
    load 0
    load 2
    iconst %[2]d
    imul
    load 2
    iadd
    aload
    fadd
    store 4
    iinc 2 1
    goto sloop
done:
    load 4
    gput out
    ret
.end
`, n*n, n, n)
}

// fftSource is the radix-2 Cooley-Tukey FFT, forward then inverse,
// with twiddle factors from the math.cos/math.sin natives. The
// checksum combines the spectrum sum and the round-trip sum.
func fftSource() string {
	n := FFTSize
	return fmt.Sprintf(`
.program fft
.global data
.global out
.func main 0 4
    iconst %[1]d        ; 2*N interleaved re/im
    newarr float
    gput data
    iconst 0
    store 0
init:
    load 0
    iconst %[1]d
    if_icmpge go
    gget data
    load 0
    load 0
    lconst 2654435761
    imul
    iconst 511
    iand
    i2f
    fconst 512.0
    fdiv
    astore
    iinc 0 1
    goto init
go:
    iconst -1
    call transform
    call sumdata
    store 1             ; spectrum sum
    iconst 1
    call transform
    ; scale by 1/N
    iconst 0
    store 0
scale:
    load 0
    iconst %[1]d
    if_icmpge sum2
    gget data
    load 0
    gget data
    load 0
    aload
    fconst %[3]s
    fmul
    astore
    iinc 0 1
    goto scale
sum2:
    call sumdata
    store 2
    load 1
    load 2
    fadd
    gput out
    ret
.end

.func sumdata 0 3 retv
    fconst 0
    store 1
    iconst 0
    store 0
loop:
    load 0
    iconst %[1]d
    if_icmpge done
    load 1
    gget data
    load 0
    aload
    fadd
    store 1
    iinc 0 1
    goto loop
done:
    load 1
    retv
.end

; transform(dir): dir = -1 forward, +1 inverse.
.func transform 1 12
    ; locals: 0=dir 1=i 2=j 3=m 4=le 5=half 6=k 7=wr 8=wi 9=idx 10=tr 11=ti
    ; --- bit reversal permutation ---
    iconst 0
    store 2
    iconst 0
    store 1
brloop:
    load 1
    iconst %[4]d        ; N-1
    if_icmpge stages
    load 1
    load 2
    if_icmpge noswap
    ; swap complex i <-> j
    gget data
    load 1
    iconst 2
    imul
    aload
    store 10
    gget data
    load 1
    iconst 2
    imul
    gget data
    load 2
    iconst 2
    imul
    aload
    astore
    gget data
    load 2
    iconst 2
    imul
    load 10
    astore
    gget data
    load 1
    iconst 2
    imul
    iconst 1
    iadd
    aload
    store 10
    gget data
    load 1
    iconst 2
    imul
    iconst 1
    iadd
    gget data
    load 2
    iconst 2
    imul
    iconst 1
    iadd
    aload
    astore
    gget data
    load 2
    iconst 2
    imul
    iconst 1
    iadd
    load 10
    astore
noswap:
    iconst %[5]d        ; N/2
    store 3
whilem:
    load 3
    iconst 1
    if_icmplt madd
    load 2
    load 3
    if_icmplt madd
    load 2
    load 3
    isub
    store 2
    load 3
    iconst 1
    ishr
    store 3
    goto whilem
madd:
    load 2
    load 3
    iadd
    store 2
    iinc 1 1
    goto brloop
stages:
    iconst 2
    store 4
leloop:
    load 4
    iconst %[2]d        ; N
    if_icmpgt tdone
    load 4
    iconst 1
    ishr
    store 5
    iconst 0
    store 6
kfor:
    load 6
    load 5
    if_icmpge lenext
    ; angle = ((k * -2pi) / le) * dir
    load 6
    i2f
    fconst -6.283185307179586
    fmul
    load 4
    i2f
    fdiv
    load 0
    ineg
    i2f
    fmul
    store 10
    load 10
    ncall math.cos 1
    store 7
    load 10
    ncall math.sin 1
    store 8
    load 6
    store 1
ifor:
    load 1
    iconst %[2]d
    if_icmpge knext
    ; j = i + half
    load 1
    load 5
    iadd
    store 2
    ; tr = wr*d[2j] - wi*d[2j+1] ; ti = wr*d[2j+1] + wi*d[2j]
    load 7
    gget data
    load 2
    iconst 2
    imul
    aload
    fmul
    load 8
    gget data
    load 2
    iconst 2
    imul
    iconst 1
    iadd
    aload
    fmul
    fsub
    store 10
    load 7
    gget data
    load 2
    iconst 2
    imul
    iconst 1
    iadd
    aload
    fmul
    load 8
    gget data
    load 2
    iconst 2
    imul
    aload
    fmul
    fadd
    store 11
    ; d[2j] = d[2i] - tr ; d[2j+1] = d[2i+1] - ti
    gget data
    load 2
    iconst 2
    imul
    gget data
    load 1
    iconst 2
    imul
    aload
    load 10
    fsub
    astore
    gget data
    load 2
    iconst 2
    imul
    iconst 1
    iadd
    gget data
    load 1
    iconst 2
    imul
    iconst 1
    iadd
    aload
    load 11
    fsub
    astore
    ; d[2i] += tr ; d[2i+1] += ti
    gget data
    load 1
    iconst 2
    imul
    gget data
    load 1
    iconst 2
    imul
    aload
    load 10
    fadd
    astore
    gget data
    load 1
    iconst 2
    imul
    iconst 1
    iadd
    gget data
    load 1
    iconst 2
    imul
    iconst 1
    iadd
    aload
    load 11
    fadd
    astore
    load 1
    load 4
    iadd
    store 1
    goto ifor
knext:
    iinc 6 1
    goto kfor
lenext:
    load 4
    iconst 1
    ishl
    store 4
    goto leloop
tdone:
    ret
.end
`, 2*n, n, fftScaleLiteral, n-1, n/2)
}

// fftScaleLiteral is 1/FFTSize rendered exactly; FFTSize is a power
// of two so the literal is exact in binary floating point.
var fftScaleLiteral = fmt.Sprintf("%.10g", 1.0/float64(FFTSize))
