import numpy as np
import pytest

from mwgft import (
    ChirpSpec,
    DimensionMismatch,
    HeatSpec,
    ImpulseSpec,
    IndexOutOfRange,
    InvalidParameter,
    ParseError,
    RandomSpec,
    SpectralProfileSpec,
    build_signal,
    chirp_signal,
    gft,
    heat_signal,
    impulse,
    path_graph,
    random_signal,
    spectral_signal,
)
from mwgft.signals import (
    load_signal_csv,
    load_spectrum_csv,
    save_signal_csv,
    save_spectrum_csv,
)
from helpers import basis_for, random_basis, random_complex
from oracles import save_signal_csv_reference, save_spectrum_csv_reference


class TestImpulse:
    def test_placement_and_norm(self):
        f = impulse(50, 25)
        assert f[24] == 1.0
        assert np.linalg.norm(f) == 1.0
        assert np.count_nonzero(f) == 1

    def test_bounds(self):
        with pytest.raises(IndexOutOfRange):
            impulse(10, 0)
        with pytest.raises(IndexOutOfRange):
            impulse(10, 11)

    def test_spectrum_is_eigenvector_row(self):
        basis = random_basis(120)
        n = 3
        spectrum = gft(basis, impulse(basis.size, n))
        assert np.allclose(spectrum, basis.vectors[n - 1, :].conj(), atol=1e-12)


class TestHeatSignal:
    def test_spectrum_positive_strictly_decreasing(self):
        basis = basis_for(path_graph(20))
        f = heat_signal(basis, tau=2.0)
        spectrum = gft(basis, f)
        assert np.all(spectrum > 0)
        assert np.all(np.diff(spectrum) < 0)  # eigenvalues strictly increase here

    def test_default_tau(self):
        basis = basis_for(path_graph(20))
        assert np.allclose(
            heat_signal(basis), heat_signal(basis, tau=10.0 / basis.lambda_max)
        )

    def test_small_tau_limit_is_flat_spectrum(self):
        basis = basis_for(path_graph(10))
        spectrum = gft(basis, heat_signal(basis, tau=1e-13))
        assert np.allclose(spectrum, 1.0, atol=1e-10)

    def test_smoother_with_larger_tau(self):
        basis = basis_for(path_graph(15))
        def roughness(tau):
            f = heat_signal(basis, tau)
            dc = gft(basis, f)[0] * basis.vectors[:, 0]
            return np.linalg.norm(f - dc)
        r = [roughness(t) for t in (1.0, 5.0, 10.0)]
        assert r[0] > r[1] > r[2]

    def test_real_output(self):
        basis = random_basis(121)
        f = heat_signal(basis, tau=1.0)
        assert not np.iscomplexobj(f) or np.max(np.abs(f.imag)) <= 1e-12

    def test_tau_validation(self):
        basis = basis_for(path_graph(5))
        with pytest.raises(InvalidParameter):
            heat_signal(basis, tau=0.0)

    @pytest.mark.parametrize("tau", [np.inf, np.nan, -np.inf])
    def test_non_finite_tau_rejected(self, tau):
        # tau = inf used to compute -inf * 0 and return a NaN signal
        basis = basis_for(path_graph(5))
        with pytest.raises(InvalidParameter, match="^diffusion time tau must be finite"):
            heat_signal(basis, tau=tau)


class TestChirpSignal:
    def test_envelope_and_center(self):
        f = chirp_signal(50, 25, 6.0, 0.3)
        offsets = np.arange(1, 51) - 25
        assert np.allclose(np.abs(f), np.exp(-(offsets**2) / (2 * 36.0)), atol=1e-12)
        assert np.isclose(abs(f[24]), 1.0)
        assert int(np.argmax(np.abs(f))) + 1 == 25

    def test_zero_rate_is_real_bump(self):
        f = chirp_signal(30, 10, 4.0, 0.0)
        assert np.allclose(f.imag, 0.0)
        assert np.all(f.real > 0)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            chirp_signal(30, 10, 0.0, 0.3)
        with pytest.raises(IndexOutOfRange):
            chirp_signal(30, 31, 6.0, 0.3)

    @pytest.mark.parametrize("rate", [np.inf, -np.inf, np.nan])
    def test_non_finite_rate_rejected(self, rate):
        # rate = inf used to return NaN off the center (inf * 0 at it)
        with pytest.raises(InvalidParameter, match="^rate must be finite, got "):
            chirp_signal(30, 10, 6.0, rate)


class TestSpectralSignal:
    def test_coordinate_vector_gives_eigenvector(self):
        basis = random_basis(122)
        e2 = np.zeros(basis.size)
        e2[2] = 1.0
        assert np.allclose(spectral_signal(basis, e2), basis.vectors[:, 2])

    def test_round_trip(self, rng):
        basis = random_basis(123)
        f_hat = random_complex(rng, basis.size)
        assert np.allclose(gft(basis, spectral_signal(basis, f_hat)), f_hat, atol=1e-12)

    def test_zero(self):
        basis = random_basis(124)
        assert np.allclose(spectral_signal(basis, np.zeros(basis.size)), 0.0)


class TestRandomSignal:
    def test_deterministic(self):
        assert np.array_equal(random_signal(10, 5), random_signal(10, 5))

    def test_real_flag(self):
        assert not np.iscomplexobj(random_signal(10, 5, complex_values=False))
        assert np.iscomplexobj(random_signal(10, 5, complex_values=True))

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameter, match="^seed must be non-negative, got -1$"):
            random_signal(10, -1)


class TestBuildSignal:
    def test_dispatch(self, tmp_path, rng):
        basis = basis_for(path_graph(12))
        assert np.array_equal(build_signal(ImpulseSpec(center=3), basis), impulse(12, 3))
        assert np.allclose(build_signal(HeatSpec(tau=2.0), basis), heat_signal(basis, 2.0))
        assert np.allclose(
            build_signal(ChirpSpec(center=6, width=2.0, rate=0.1), basis),
            chirp_signal(12, 6, 2.0, 0.1),
        )
        assert np.array_equal(
            build_signal(RandomSpec(seed=9), basis), random_signal(12, 9)
        )
        f_hat = random_complex(rng, 12)
        target = tmp_path / "spectrum.csv"
        save_spectrum_csv(target, f_hat)
        from_file = build_signal(SpectralProfileSpec(path=str(target)), basis)
        assert np.allclose(from_file, spectral_signal(basis, f_hat), atol=1e-15)

    def test_profile_spec_validation(self):
        # the spectrum file is the one way to give a profile, so it is required
        with pytest.raises(TypeError):
            SpectralProfileSpec()

    def test_unknown_spec_rejected(self):
        with pytest.raises(InvalidParameter, match="^unknown signal spec <object object"):
            build_signal(object(), basis_for(path_graph(5)))

    def test_length_mismatch(self, tmp_path):
        basis = basis_for(path_graph(5))
        target = tmp_path / "spectrum.csv"
        save_spectrum_csv(target, np.array([1.0, 2.0]))
        with pytest.raises(DimensionMismatch):
            build_signal(SpectralProfileSpec(path=str(target)), basis)


class TestSignalCsv:
    def test_complex_round_trip(self, tmp_path, rng):
        values = random_complex(rng, 9)
        target = tmp_path / "signal.csv"
        save_signal_csv(target, values)
        assert np.array_equal(load_signal_csv(target), values)

    def test_real_round_trip_stays_real(self, tmp_path):
        values = np.arange(5.0)
        target = tmp_path / "signal.csv"
        save_signal_csv(target, values)
        loaded = load_signal_csv(target)
        assert not np.iscomplexobj(loaded)
        assert np.array_equal(loaded, values)

    def test_spectrum_round_trip(self, tmp_path, rng):
        values = random_complex(rng, 7)
        target = tmp_path / "spectrum.csv"
        save_spectrum_csv(target, values)
        assert np.array_equal(load_spectrum_csv(target), values)

    def test_header_checked(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_signal_csv(target)

    def test_missing_vertex_detected(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("vertex,re,im\n1,0.0,0.0\n1,1.0,0.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_signal_csv(target)

    @pytest.mark.parametrize("case", ["real", "complex", "edge-real", "edge-complex"])
    @pytest.mark.parametrize("kind", ["signal", "spectrum"])
    def test_bytes_match_reference(self, tmp_path, rng, kind, case):
        edge = [0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf, 0.1, 1 / 3, 1e16]
        values = {
            "real": rng.standard_normal(6),
            "complex": random_complex(rng, 6),
            "edge-real": np.array(edge),
            "edge-complex": np.array([complex(re, im) for re, im in zip(edge, edge[::-1])]),
        }[case]
        save, reference = {
            "signal": (save_signal_csv, save_signal_csv_reference),
            "spectrum": (save_spectrum_csv, save_spectrum_csv_reference),
        }[kind]
        target, expected = tmp_path / "out.csv", tmp_path / "oracle.csv"
        save(target, values)
        reference(expected, values)
        assert target.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "body, line",
        [
            pytest.param("1,0.5,0.0,junk\n2,1.0,0.0\n", 2, id="extra-field"),
            pytest.param("1,0.5,0.0\n2,nan,0.0\n", 3, id="nan"),
            pytest.param("1,0.5,inf\n2,1.0,0.0\n", 2, id="inf"),
            pytest.param("1,0.5,-inf\n", 2, id="minus-inf"),
            pytest.param("1,0.5,0.0\n2,x,0.0\n", 3, id="non-numeric"),
            pytest.param("1,0.5\n", 2, id="missing-field"),
            pytest.param("2,0.5,0.0\n2,1.0,0.0\n", 3, id="repeated-index"),
            pytest.param("1,0.5,0.0\n3,1.0,0.0\n", 3, id="skipped-index"),
            pytest.param("1000000000000,0.5,0.0\n", 2, id="huge-index"),
            pytest.param("-1,0.5,0.0\n", 2, id="negative-index"),
            pytest.param("1,0.5,0.0\n2," + "1" * 140000 + ",0.0\n", 3, id="oversized-field"),
            pytest.param("", 2, id="header-only"),
        ],
    )
    @pytest.mark.parametrize("kind", ["signal", "spectrum"])
    def test_bad_rows_rejected_with_line(self, tmp_path, kind, body, line):
        header, load, shift = {
            "signal": ("vertex,re,im", load_signal_csv, 0),
            "spectrum": ("ell,re,im", load_spectrum_csv, -1),
        }[kind]
        # spectra count from 0: shift every leading index down by one
        rows = [f"{int(r.split(',')[0]) + shift},{r.split(',', 1)[1]}" for r in body.splitlines()]
        target = tmp_path / "bad.csv"
        target.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load(target)
        assert err.value.line == line

    def test_empty_file(self, tmp_path):
        target = tmp_path / "empty.csv"
        target.write_text("", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_signal_csv(target)
        assert err.value.line == 1

    def test_oversized_header_field(self, tmp_path):
        target = tmp_path / "header.csv"
        target.write_text("vertex," + "r" * 140000 + ",im\n1,0.5,0.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_signal_csv(target)
        assert err.value.line == 1

    def test_rows_placed_by_index(self, tmp_path):
        target = tmp_path / "shuffled.csv"
        target.write_text("ell,re,im\r\n2,3.0,0.0\r\n0,1.0,-0.0\r\n\r\n1,2.0,0.5\r\n", encoding="utf-8")
        loaded = load_spectrum_csv(target)
        assert np.array_equal(loaded, [1.0, 2.0 + 0.5j, 3.0])

    @pytest.mark.parametrize(
        "values", [[-0.0, 1.0], [complex(-0.0, 1.0), complex(1.0, -0.0)]], ids=["real", "complex"]
    )
    def test_signed_zero_survives_round_trip(self, tmp_path, values):
        values = np.array(values)
        target = tmp_path / "signal.csv"
        save_signal_csv(target, values)
        loaded = load_signal_csv(target)
        assert loaded.dtype == values.dtype
        assert np.signbit(loaded.real).tolist() == np.signbit(values.real).tolist()
        assert np.signbit(loaded.imag).tolist() == np.signbit(values.imag).tolist()


def test_load_quoted_signal_with_blank_line(tmp_path):
    target = tmp_path / "quoted.csv"
    target.write_text('vertex,re,im\r\n2,"1.5",0.0\r\n\r\n1,0.25,"-0.0"\r\n', encoding="utf-8")
    assert load_signal_csv(target).tolist() == [0.25, 1.5]
