import logging
import struct

import numpy as np
import pytest

from manhattan import sampler
from manhattan.cli import main
from manhattan.grid import Grid, read_mht1, write_mht1


def run(*argv):
    return main(list(argv))


class TestInfo:
    def test_lines_density(self, capsys):
        assert run(
            "info", "--k", "3,3,3", "--lambda", "1,1,1",
            "--collection", "100,010,001",
        ) == 0
        out = capsys.readouterr().out
        assert "density: 7/27" in out
        assert "samples per fundamental cell: 7" in out
        assert "landau identity (region volume == density): holds" in out

    def test_facets_and_video(self, capsys):
        run("info", "--k", "3,3,3", "--collection", "110,101,011")
        assert "density: 19/27" in capsys.readouterr().out
        run("info", "--k", "3,3,3", "--collection", "110,001")
        assert "density: 11/27" in capsys.readouterr().out

    def test_bad_collection_token(self, capsys):
        assert run("info", "--k", "3,3", "--collection", "10,2X") == 2

    def test_wrong_length_collection_token(self):
        assert run("info", "--k", "3,3", "--collection", "10,011") == 2

    @pytest.mark.parametrize("lam", ["1/0,1", "1,1/0"])
    def test_bad_lambda_is_usage_error(self, lam):
        assert run("info", "--k", "2,2", "--lambda", lam, "--collection", "10,01") == 2

    def test_rational_lambda(self, capsys):
        assert run("info", "--k", "2,2", "--lambda", "1/2,3", "--collection", "10,01") == 0
        assert "density: 1/2 = " in capsys.readouterr().out


class TestGenerate:
    def test_random_deterministic(self, tmp_path):
        a = tmp_path / "a.mht1"
        b = tmp_path / "b.mht1"
        run("generate", "--size", "8,8", "--kind", "random", "--seed", "7",
            "--output", str(a))
        run("generate", "--size", "8,8", "--kind", "random", "--seed", "7",
            "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_constant_and_impulse(self, tmp_path):
        out = tmp_path / "c.mht1"
        run("generate", "--size", "4,4", "--kind", "constant", "--value", "5",
            "--output", str(out))
        with open(out, "rb") as fh:
            assert np.all(read_mht1(fh).data.real == 5.0)
        run("generate", "--size", "4,4", "--kind", "impulse", "--output", str(out))
        with open(out, "rb") as fh:
            g = read_mht1(fh)
        assert g.data.real[0, 0] == 1.0 and g.data.real.sum() == 1.0


class TestPipeline:
    @pytest.mark.parametrize("k", ["4,4", "8,8"])
    def test_round_trip_mht1(self, tmp_path, k, capsys):
        raw = tmp_path / "raw.mht1"
        limited = tmp_path / "bl.mht1"
        samples = tmp_path / "s.mhs1"
        recon = tmp_path / "rec.mht1"
        run("generate", "--size", "32,32", "--seed", "3", "--output", str(raw))
        assert run(
            "bandlimit", "--k", k, "--collection", "10,01",
            "--input", str(raw), "--output", str(limited),
        ) == 0
        assert run(
            "sample", "--k", k, "--collection", "10,01",
            "--input", str(limited), "--samples", str(samples),
        ) == 0
        assert run(
            "reconstruct", "--samples", str(samples), "--output", str(recon),
            "--reference", str(limited),
        ) == 0
        assert "PASS" in capsys.readouterr().out
        with open(limited, "rb") as fh:
            ref = read_mht1(fh).data.real
        with open(recon, "rb") as fh:
            got = read_mht1(fh).data.real
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("level", [logging.DEBUG, logging.INFO], ids=["debug", "info"])
    def test_mhs1_io_logged_at_debug(self, tmp_path, caplog, level):
        # the bench's per-layer names; the INFO lines are the same at both levels
        caplog.set_level(level, logger="manhattan")
        image, samples = tmp_path / "img.mht1", tmp_path / "s.mhs1"
        run("generate", "--size", "16,16", "--output", str(image))
        caplog.clear()
        assert run("sample", "--k", "4,4", "--collection", "10,01",
                   "--input", str(image), "--samples", str(samples)) == 0
        assert run("reconstruct", "--samples", str(samples),
                   "--output", str(tmp_path / "rec.mht1")) == 0
        info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert info == [f"wrote 112 samples to {samples}",
                        f"reconstructed {samples} -> {tmp_path / 'rec.mht1'}"]
        debug = [r.getMessage().split() for r in caplog.records if r.levelno == logging.DEBUG]
        if level == logging.INFO:
            assert debug == []
            return
        names = [("sampler.mhs1_write_s", "sampler.mhs1_bytes", "sampler.mhs1_split"),
                 ("sampler.mhs1_read_s", "sampler.mhs1_bytes", "sampler.mhs1_split"),
                 ("core.alias_pairs", "reconstruct.reconstruct_s")]
        assert [tuple(words[::2]) for words in debug] == names
        for words in debug[:2]:
            assert float(words[1]) >= 0 and int(words[3]) == samples.stat().st_size
            assert words[5] == "0"  # 112 rows: under two chunks, so never split
        assert debug[2][1] == "1" and float(debug[2][3]) > 0  # 00 folds 01 only: 10 is peeled

    def test_mhs1_split_logged(self, tmp_path, caplog, monkeypatch):
        # with the split forced, both halves of the 112-row body run at once
        monkeypatch.setattr(sampler, "_MHS1_CHUNK_ROWS", 7)
        monkeypatch.setattr(sampler, "_splits", lambda rows: True)
        caplog.set_level(logging.DEBUG, logger="manhattan")
        image, samples = tmp_path / "img.mht1", tmp_path / "s.mhs1"
        run("generate", "--size", "16,16", "--output", str(image))
        assert run("sample", "--k", "4,4", "--collection", "10,01",
                   "--input", str(image), "--samples", str(samples)) == 0
        assert run("reconstruct", "--samples", str(samples),
                   "--output", str(tmp_path / "rec.mht1")) == 0
        debug = [r.getMessage().split() for r in caplog.records if r.levelno == logging.DEBUG]
        split = [words[4:] for words in debug if words[0].startswith("sampler.")]
        assert split == [["sampler.mhs1_split", "1"]] * 2

    def test_round_trip_lambda2(self, tmp_path, capsys):
        raw = tmp_path / "raw.mht1"
        limited = tmp_path / "bl.mht1"
        samples = tmp_path / "s.mhs1"
        recon = tmp_path / "rec.mht1"
        run("generate", "--size", "32,32", "--seed", "4", "--output", str(raw))
        run("bandlimit", "--k", "8,8", "--lambda", "2,2", "--collection", "10,01",
            "--input", str(raw), "--output", str(limited))
        run("sample", "--k", "8,8", "--lambda", "2,2", "--collection", "10,01",
            "--input", str(limited), "--samples", str(samples))
        assert run(
            "reconstruct", "--samples", str(samples), "--output", str(recon),
            "--reference", str(limited),
        ) == 0
        assert "PASS" in capsys.readouterr().out

    def test_pgm_interchange(self, tmp_path):
        raw = tmp_path / "raw.pgm"
        limited = tmp_path / "bl.pgm"
        spec = tmp_path / "spec.pgm"
        run("generate", "--size", "64,64", "--seed", "5", "--output", str(raw))
        assert run(
            "bandlimit", "--k", "4,4", "--collection", "10,01",
            "--input", str(raw), "--output", str(limited),
        ) == 0
        assert limited.read_bytes().startswith(b"P5")
        assert run("spectrum", "--input", str(limited), "--output", str(spec)) == 0
        assert spec.read_bytes().startswith(b"P5")

    def test_each_path_by_its_own_suffix(self, tmp_path, capsys):
        raw, ref = tmp_path / "raw.PGM", tmp_path / "ref.pgm"  # a constant is bandlimited
        limited, samples, recon = (tmp_path / n for n in ("bl.mht1", "s.mhs1", "rec.mht1"))
        for out in (raw, ref):
            run("generate", "--size", "16,16", "--kind", "constant", "--value", "7",
                "--output", str(out))
        assert run(
            "bandlimit", "--k", "4,4", "--collection", "10,01",
            "--input", str(raw), "--output", str(limited),
        ) == 0
        run("sample", "--k", "4,4", "--collection", "10,01",
            "--input", str(limited), "--samples", str(samples))
        assert run(
            "reconstruct", "--samples", str(samples), "--output", str(recon),
            "--reference", str(ref),
        ) == 0
        assert "PASS" in capsys.readouterr().out
        assert raw.read_bytes().startswith(b"P5") and ref.read_bytes().startswith(b"P5")
        assert limited.read_bytes().startswith(b"MHT1")
        assert recon.read_bytes().startswith(b"MHT1")

    def test_spectrum_ignores_rounding_noise(self, tmp_path):
        # a bandlimited image and its reconstruction differ by rounding only
        raw, limited, samples = (tmp_path / n for n in ("raw.mht1", "bl.mht1", "s.mhs1"))
        recon, a, b = (tmp_path / n for n in ("rec.mht1", "a.pgm", "b.pgm"))
        run("generate", "--size", "48,48", "--seed", "2", "--output", str(raw))
        run("bandlimit", "--k", "4,4", "--collection", "10,01",
            "--input", str(raw), "--output", str(limited))
        run("sample", "--k", "4,4", "--collection", "10,01",
            "--input", str(limited), "--samples", str(samples))
        assert run("reconstruct", "--samples", str(samples), "--output", str(recon)) == 0
        assert run("spectrum", "--input", str(limited), "--output", str(a)) == 0
        assert run("spectrum", "--input", str(recon), "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("suffix,code,verdict", [(".mht1", 0, "PASS"), (".pgm", 4, "FAIL")])
    def test_pgm_output_is_not_exact(self, tmp_path, capsys, suffix, code, verdict):
        # PGM rounds and clips to 8 bits, so a bandlimited image saved as PGM is no
        # longer bandlimited; the loss shows as a loud FAIL, never as a quiet PASS
        raw, limited, recon = (tmp_path / (n + suffix) for n in ("raw", "bl", "rec"))
        samples = tmp_path / "s.mhs1"
        run("generate", "--size", "48,48", "--seed", "3", "--output", str(raw))
        run("bandlimit", "--k", "4,4", "--collection", "10,01",
            "--input", str(raw), "--output", str(limited))
        assert run("sample", "--k", "4,4", "--collection", "10,01",
                   "--input", str(limited), "--samples", str(samples)) == 0
        assert run(
            "reconstruct", "--samples", str(samples), "--output", str(recon),
            "--reference", str(limited),
        ) == code
        assert capsys.readouterr().out.startswith(f"{verdict} relative max error")

    def test_3d_via_mht1(self, tmp_path, capsys):
        raw = tmp_path / "raw.mht1"
        limited = tmp_path / "bl.mht1"
        samples = tmp_path / "s.mhs1"
        recon = tmp_path / "rec.mht1"
        run("generate", "--size", "6,6,6", "--seed", "6", "--output", str(raw))
        run("bandlimit", "--k", "2,2,2", "--collection", "100,010,001",
            "--input", str(raw), "--output", str(limited))
        run("sample", "--k", "2,2,2", "--collection", "100,010,001",
            "--input", str(limited), "--samples", str(samples))
        assert run(
            "reconstruct", "--samples", str(samples), "--output", str(recon),
            "--reference", str(limited),
        ) == 0
        assert "PASS" in capsys.readouterr().out


VALID_ARGV = {
    "info": ["--k", "3,3,3", "--collection", "100,010,001"],
    "bandlimit": ["--k", "4,4", "--collection", "10,01", "--input", "a.mht1",
                  "--output", "b.mht1"],
    "sample": ["--k", "4,4", "--collection", "10,01", "--input", "a.mht1",
               "--samples", "s.mhs1"],
    "reconstruct": ["--samples", "s.mhs1", "--output", "b.mht1"],
    "spectrum": ["--input", "a.mht1", "--output", "b.pgm"],
    "generate": ["--size", "4,4", "--output", "a.mht1"],
}


class TestErrorPaths:
    @pytest.mark.parametrize("flag", [("--format", "pgm"), ("--dims", "3")],
                             ids=["format", "dims"])
    @pytest.mark.parametrize("command", list(VALID_ARGV))
    def test_removed_flag_is_usage_error(self, tmp_path, monkeypatch, capsys, command, flag):
        # d comes from --k and each file's format from its suffix, nothing else
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(command, *VALID_ARGV[command], *flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("size", [",".join(["1"] * 17), "4294967296,4294967296,4294967296"],
                             ids=["17-axes", "too-big"])
    @pytest.mark.parametrize("kind", ["random", "constant", "impulse"])
    def test_unwritable_size_is_usage_error(self, tmp_path, size, kind):
        # MHT1 holds at most 16 axes; numpy refuses the other size before allocating
        out = tmp_path / "g.mht1"
        assert run("generate", "--size", size, "--kind", kind, "--output", str(out)) == 2
        assert not out.exists()

    def test_extent_violation_is_usage_error(self, tmp_path):
        raw = tmp_path / "raw.mht1"
        out = tmp_path / "out.mht1"
        run("generate", "--size", "10,10", "--output", str(raw))
        assert run(
            "bandlimit", "--k", "4,4", "--collection", "10,01",
            "--input", str(raw), "--output", str(out),
        ) == 2

    def test_overflowing_spectrum_is_numerical_failure(self, tmp_path):
        raw = tmp_path / "raw.mht1"
        out = tmp_path / "out.mht1"
        run("generate", "--size", "16,16", "--kind", "constant", "--value", "1.7e308",
            "--output", str(raw))
        assert run(
            "bandlimit", "--k", "4,4", "--collection", "10,01",
            "--input", str(raw), "--output", str(out),
        ) == 4
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_constant_is_usage_error(self, tmp_path, value):
        out = tmp_path / "c.mht1"
        assert run("generate", "--size", "4,4", "--kind", "constant", f"--value={value}",
                   "--output", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("value,where", [(np.nan, (3, 5)), (1e308, slice(None))],
                             ids=["nan-pixel", "overflowing-dft"])
    @pytest.mark.parametrize("suffix", [".mht1", ".pgm"])
    def test_non_finite_spectrum_is_numerical_failure(self, tmp_path, value, where, suffix):
        image = np.ones((16, 16))
        image[where] = value
        raw = tmp_path / "raw.mht1"
        with open(raw, "wb") as fh:
            write_mht1(fh, Grid.from_array(image))
        out = tmp_path / ("spec" + suffix)
        assert run("spectrum", "--input", str(raw), "--output", str(out)) == 4
        assert not out.exists()

    def test_overflowing_spectrum_magnitude_is_numerical_failure(self, tmp_path):
        # a finite complex spectrum whose one bin's magnitude overflows float64
        spectrum = np.zeros((4, 4), dtype=complex)
        spectrum[1, 2] = 1.7e308 + 1.7e308j
        raw = tmp_path / "spectrum.mht1"
        with open(raw, "wb") as fh:
            write_mht1(fh, Grid.from_array(spectrum))
        out = tmp_path / "report.mht1"
        assert run("spectrum", "--input", str(raw), "--output", str(out)) == 4
        assert not out.exists()

    def test_unknown_magic_is_format_error(self, tmp_path):
        bogus = tmp_path / "bogus.mht1"
        bogus.write_bytes(b"WHAT" + b"\0" * 32)
        out = tmp_path / "out.mht1"
        assert run(
            "bandlimit", "--k", "4,4", "--collection", "10,01",
            "--input", str(bogus), "--output", str(out),
        ) == 3

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run(
            "bandlimit", "--k", "4,4", "--collection", "10,01",
            "--input", str(tmp_path / "nope.mht1"),
            "--output", str(tmp_path / "out.mht1"),
        ) == 2

    def test_output_directory_is_usage_error(self, tmp_path, caplog):
        # every OSError on a path is a usage error, not only a missing file
        assert run("generate", "--size", "8,8", "--output", f"{tmp_path}/") == 2
        assert any(r.levelname == "ERROR" for r in caplog.records)

    @pytest.mark.parametrize("pixel,code", [((0, 3), 2), ((1, 1), 0)], ids=["on-set", "off-set"])
    def test_non_finite_sample_is_usage_error(self, tmp_path, pixel, code):
        # a NaN on M(B) would make an MHS1 file that reconstruct refuses
        image = np.ones((16, 16))
        image[pixel] = np.nan
        raw, samples = tmp_path / "raw.mht1", tmp_path / "s.mhs1"
        with open(raw, "wb") as fh:
            write_mht1(fh, Grid.from_array(image))
        assert run(
            "sample", "--k", "4,4", "--collection", "10,01",
            "--input", str(raw), "--samples", str(samples),
        ) == code
        assert samples.exists() == (code == 0)

    def test_few_rows_on_large_extents_is_usage_error(self, tmp_path):
        # counted before any array of size prod(T) is built
        samples = tmp_path / "s.mhs1"
        samples.write_text("MHS1\ndims 2\nT 4096 4096\nk 4 4\nlambda 1 1\n"
                           "collection 10,01\n0 0 1.0\n0 1 2.0\n")
        out = tmp_path / "out.mht1"
        assert run("reconstruct", "--samples", str(samples), "--output", str(out)) == 2
        assert not out.exists()

    def test_mhs1_header_of_no_sample_set_is_format_error(self, tmp_path, caplog):
        # T_0 = 5 is no multiple of k_0 = 2: the file is malformed, as a bad magic is
        samples = tmp_path / "s.mhs1"
        samples.write_text("MHS1\ndims 2\nT 5 4\nk 2 2\nlambda 1 1\n"
                           "collection 10,01\n0 0 1.0\n")
        out = tmp_path / "out.mht1"
        assert run("reconstruct", "--samples", str(samples), "--output", str(out)) == 3
        assert "malformed MHS1 header: T[0]=5" in caplog.text
        assert not out.exists()

    def test_bad_mhs1_magic(self, tmp_path):
        bad = tmp_path / "bad.mhs1"
        bad.write_text("BOGUS\n")
        assert run(
            "reconstruct", "--samples", str(bad),
            "--output", str(tmp_path / "out.mht1"),
        ) == 3

    def _sample_16(self, tmp_path):
        image = tmp_path / "image.mht1"
        samples = tmp_path / "s.mhs1"
        run("generate", "--size", "16,16", "--output", str(image))
        assert run(
            "sample", "--k", "4,4", "--collection", "10,01",
            "--input", str(image), "--samples", str(samples),
        ) == 0
        return samples

    def test_truncated_mhs1_is_usage_error(self, tmp_path):
        samples = self._sample_16(tmp_path)
        lines = samples.read_text().splitlines(keepends=True)
        samples.write_text("".join(lines[:-1]))  # drop the last sample row
        assert run(
            "reconstruct", "--samples", str(samples),
            "--output", str(tmp_path / "out.mht1"),
        ) == 2

    @pytest.mark.parametrize("damage", ["missing", "repeated", "outside", "nan"])
    def test_damaged_mhs1_body_is_usage_error(self, tmp_path, damage):
        # the rows parse, but they are not M(B) once with finite values: read_mhs1
        # refuses them as SampleSet does, and nothing is written
        samples = self._sample_16(tmp_path)
        lines = samples.read_text().splitlines(keepends=True)
        lines[7:8] = {
            "missing": [],
            "repeated": [lines[8]],
            "outside": ["0 16 1.0\n"],
            "nan": [lines[7].rsplit(" ", 1)[0] + " nan\n"],
        }[damage]
        samples.write_text("".join(lines))
        out = tmp_path / "out.mht1"
        assert run("reconstruct", "--samples", str(samples), "--output", str(out)) == 2
        assert not out.exists()

    def test_malformed_mhs1_row_is_format_error(self, tmp_path):
        samples = self._sample_16(tmp_path)
        lines = samples.read_text().splitlines(keepends=True)
        lines[7] = "0 x 1.0\n"
        samples.write_text("".join(lines))
        assert run(
            "reconstruct", "--samples", str(samples),
            "--output", str(tmp_path / "out.mht1"),
        ) == 3

    def test_header_line_of_wrong_values_is_format_error(self, tmp_path, caplog):
        samples = self._sample_16(tmp_path)
        samples.write_text(samples.read_text().replace("dims 2\n", "dims 2 3\n"))
        assert run(
            "reconstruct", "--samples", str(samples),
            "--output", str(tmp_path / "out.mht1"),
        ) == 3
        assert "malformed MHS1 header: dims must hold one integer, got 'dims 2 3'" in caplog.text

    def test_all_cr_mhs1_reads_as_lf(self, tmp_path, monkeypatch):
        # after a header line that ends in a bare CR, a text handle's position is
        # decoder state, not a byte offset; the file still reads, split or not
        samples = self._sample_16(tmp_path)
        cr = tmp_path / "cr.mhs1"
        cr.write_bytes(samples.read_bytes().replace(b"\n", b"\r"))
        monkeypatch.setattr(sampler, "_splits", lambda rows: True)
        outputs = []
        for path in (samples, cr):
            outputs.append(tmp_path / f"{path.stem}.mht1")
            assert run("reconstruct", "--samples", str(path), "--output", str(outputs[-1])) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_undecodable_mhs1_is_format_error(self, tmp_path, caplog):
        samples = self._sample_16(tmp_path)
        samples.write_bytes(samples.read_bytes().replace(b"\n0 1 ", b"\n0\xa01 ", 1))
        assert run("reconstruct", "--samples", str(samples),
                   "--output", str(tmp_path / "out.mht1")) == 3
        assert "not utf-8 text: invalid start byte 0xa0" in caplog.text

    def test_header_only_mhs1_is_usage_error(self, tmp_path):
        samples = self._sample_16(tmp_path)
        lines = samples.read_text().splitlines(keepends=True)
        samples.write_text("".join(lines[:6]))  # header, no sample rows
        assert run(
            "reconstruct", "--samples", str(samples),
            "--output", str(tmp_path / "out.mht1"),
        ) == 2

    def test_out_of_range_mhs1_row_is_usage_error(self, tmp_path):
        # the rows parse; the sample set they make is refused
        samples = self._sample_16(tmp_path)
        lines = samples.read_text().splitlines(keepends=True)
        lines[6] = "16 0 1.0\n"  # the first sample row, one past the last row of T
        samples.write_text("".join(lines))
        assert run(
            "reconstruct", "--samples", str(samples),
            "--output", str(tmp_path / "out.mht1"),
        ) == 2

    @pytest.mark.parametrize("command", ["sample", "bandlimit"])
    def test_spectrum_input_is_usage_error(self, tmp_path, command):
        spectrum = tmp_path / "spectrum.mht1"
        with open(spectrum, "wb") as fh:
            write_mht1(fh, Grid.from_array(np.ones((16, 16), dtype=complex)))
        output = "--samples" if command == "sample" else "--output"
        assert run(
            command, "--k", "4,4", "--collection", "10,01",
            "--input", str(spectrum), output, str(tmp_path / "out"),
        ) == 2

    def test_spectrum_reference_is_usage_error(self, tmp_path):
        samples = self._sample_16(tmp_path)
        output = tmp_path / "out.mht1"
        assert run("reconstruct", "--samples", str(samples), "--output", str(output)) == 0
        with open(output, "rb") as fh:
            image = read_mht1(fh)
        reference = tmp_path / "ref.mht1"  # the exact result, stored as a spectrum
        with open(reference, "wb") as fh:
            write_mht1(fh, Grid.from_array(image.data.astype(complex)))
        assert run(
            "reconstruct", "--samples", str(samples),
            "--output", str(output), "--reference", str(reference),
        ) == 2

    @pytest.mark.parametrize(
        "name,data",
        [
            ("zero.mht1", b"MHT1" + struct.pack("<I2QB", 2, 0, 4, 0)),
            ("zero.pgm", b"P5 0 4 255\n"),
        ],
        ids=["mht1", "pgm"],
    )
    def test_zero_extent_is_format_error(self, tmp_path, name, data):
        # a file that declares a zero extent is malformed, not a refused grid
        bad = tmp_path / name
        bad.write_bytes(data)
        out = tmp_path / ("out" + bad.suffix)
        assert run("spectrum", "--input", str(bad), "--output", str(out)) == 3
        assert not out.exists()

    def test_truncated_mht1_header_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.mht1"
        bad.write_bytes(b"MHT1\x01")
        assert run(
            "sample", "--k", "4,4", "--collection", "10,01",
            "--input", str(bad), "--samples", str(tmp_path / "s.mhs1"),
        ) == 3

    def test_reference_extent_mismatch_is_usage_error(self, tmp_path):
        samples = self._sample_16(tmp_path)
        reference = tmp_path / "ref.mht1"
        run("generate", "--size", "16,8", "--output", str(reference))
        assert run(
            "reconstruct", "--samples", str(samples),
            "--output", str(tmp_path / "out.mht1"), "--reference", str(reference),
        ) == 2

    @pytest.mark.parametrize("existed", [True, False], ids=["existing", "new"])
    @pytest.mark.parametrize("command", ["generate", "bandlimit", "spectrum"])
    def test_refused_pgm_write_leaves_output_alone(self, tmp_path, command, existed):
        # a 3D image has no PGM form; the refusal comes before the path is opened
        raw = tmp_path / "raw.mht1"
        run("generate", "--size", "4,4,4", "--output", str(raw))
        out, before = tmp_path / "out.pgm", b"P5\n2 1\n255\n\x03\xfa"
        if existed:
            out.write_bytes(before)
        argv = {
            "generate": ["--size", "4,4,4"],
            "bandlimit": ["--k", "2,2,2", "--collection", "110,101,011", "--input", str(raw)],
            "spectrum": ["--input", str(raw)],
        }[command]
        assert run(command, *argv, "--output", str(out)) == 2
        if existed:
            assert out.read_bytes() == before
        else:
            assert not out.exists()
